package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// metricDef declares one metric. Workloads lists the workloads whose
// layers the metric measures; nil means all of them. A per-layer metric
// of a layer a workload does not run reads 0 there.
type metricDef struct {
	Name, Unit, Better string
	Workloads          []string
}

var (
	resnetInfer = []string{"resnet20-sparse", "resnet20-dense"}
	onlySparse  = []string{"resnet20-sparse"}
	onlyServe   = []string{"lenet-serve"}
	onlyTrain   = []string{"resnet20-train-dp2"}
	inferOnly   = []string{"resnet20-sparse", "resnet20-dense", "lenet-serve"}
)

// endToEnd are the metrics a user sees, measured with tracing off on every
// workload. README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "heap_live_peak_mb", Unit: "MB", Better: "lower"},
}

// r20Layers are ResNet-20's ODQ conv layers: every conv but the first,
// which stays float.
var r20Layers = func() []string {
	var out []string
	for stage := 1; stage <= 3; stage++ {
		for b := 0; b < 3; b++ {
			p := fmt.Sprintf("s%db%d", stage, b)
			out = append(out, p+".conv1", p+".conv2")
			if stage > 1 && b == 0 {
				out = append(out, p+".scconv")
			}
		}
	}
	return out
}()

// perLayer are the traced run's metrics, grouped by the repository module
// that owns the layer. README.md maps each to the end-to-end metric it
// should move.
var perLayer = func() []metricDef {
	ms := func(name string, w []string) metricDef { return metricDef{name, "ms", "lower", w} }
	d := []metricDef{
		ms("serve.queue_wait_ms_p50.500rps", onlyServe),
		ms("serve.queue_wait_ms_p99.500rps", onlyServe),
		ms("serve.collect_ms_p50.250rps", onlyServe),
		ms("serve.execute_ms_p50.500rps", onlyServe),
		ms("serve.scatter_ms_p50.500rps", onlyServe),
		{"serve.mean_batch.250rps", "requests", "higher", onlyServe},
		{"serve.mean_batch.500rps", "requests", "higher", onlyServe},
		{"serve.rejected", "count", "lower", onlyServe},
		{"serve.max_rps_at_slo", "1/s", "higher", onlyServe},
		ms("loadgen.late_ms_max", onlyServe),
		ms("infer.forward_ms.b16", resnetInfer),
		ms("infer.forward_ms.b1", resnetInfer),
		{"infer.allocs_per_forward.b16", "count", "lower", resnetInfer},
		{"infer.alloc_mb_per_forward.b16", "MB", "lower", resnetInfer},
		ms("infer.packed_forward_ms.b1", onlyServe),
		ms("infer.packed_forward_ms.b16", onlyServe),
		{"infer.packed_allocs_per_forward.b16", "count", "lower", onlyServe},
		ms("ref.int8_forward_ms.b16", onlySparse),
		ms("ref.drq84_forward_ms.b16", onlySparse),
		ms("ref.float_forward_ms.b16", onlySparse),
		ms("nn.nonconv_ms.b16", resnetInfer),
	}
	for _, l := range r20Layers {
		d = append(d, ms("core.conv_ms."+l, resnetInfer))
	}
	d = append(d,
		ms("core.predictor_ms.b16", inferOnly),
		ms("core.executor_ms.b16", inferOnly),
		ms("core.conv_other_ms.b16", inferOnly),
	)
	for _, l := range r20Layers {
		d = append(d, metricDef{"quant.sensitivity." + l, "ratio", "lower", resnetInfer})
	}
	d = append(d,
		metricDef{"quant.sensitivity", "ratio", "lower", inferOnly},
		metricDef{"quant.macs_predictor.per_sample", "MAC", "lower", inferOnly},
		metricDef{"quant.macs_executor.per_sample", "MAC", "lower", inferOnly},
		metricDef{"quant.macs_skipped.per_sample", "MAC", "higher", inferOnly},
		ms("tensor.gemm_ms.b16", nil),
		ms("train.step_ms_p50", onlyTrain),
		ms("train.step_ms_p95", onlyTrain),
		ms("train.compute_ms_p50", onlyTrain),
		ms("dist.reduce_ms_p50", onlyTrain),
		ms("dist.reduce_ms_p95", onlyTrain),
		ms("dist.reduce_ms_p50.rank1", onlyTrain),
		metricDef{"dist.reduce_share", "ratio", "lower", onlyTrain},
		metricDef{"dist.reduces", "count", "higher", onlyTrain},
		metricDef{"trace.overhead_pct", "%", "lower", nil},
		metricDef{"trace.dropped_spans", "count", "lower", nil},
	)
	return d
}()

func (d metricDef) appliesTo(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

func lookupDef(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// sizes scale the fixtures and inputs. fullSizes is the benchmark; the
// package test runs every workload at tinySizes.
type sizes struct {
	r20Scale     float64 // ResNet-20 fixture width
	r20Images    int     // ResNet-20 fixture training images
	lenetImages  int     // LeNet fixture training images
	lenetEpochs  int     // LeNet fixture epochs per phase (relaxed, then QAT)
	heldOut      int     // held-out inputs per workload, and fixture evaluation images
	trainScale   float64 // width of the trained ResNet-20 in resnet20-train-dp2
	trainImages  int     // its training images
	checkImages  int     // images of the 2-worker vs 1-worker check fit
	setupReps    int     // set-ups per run; setup_s is their median
	allocForward int     // forwards averaged for the allocation counts
}

var fullSizes = sizes{
	r20Scale: 0.5, r20Images: 512,
	lenetImages: 1024, lenetEpochs: 2,
	heldOut:    256,
	trainScale: 0.25, trainImages: 1024, checkImages: 128,
	setupReps: 15, allocForward: 3,
}

var tinySizes = sizes{
	r20Scale: 0.25, r20Images: 32,
	lenetImages: 64, lenetEpochs: 1,
	heldOut:    32,
	trainScale: 0.25, trainImages: 128, checkImages: 64,
	setupReps: 2, allocForward: 1,
}

// suite is what one process shares across its workloads.
type suite struct {
	sz       sizes
	seed     int64
	seconds  float64
	traced   bool
	ledger   string   // fixture ledger path; "" skips the cross-run fixture check
	spans    *spanLog // nil unless traced
	fixtures map[string]*fixture
	corrupt  bool // flip one logit before the first comparison (tests)
}

func newSuite(sz sizes, seed int64, seconds float64, traced bool, ledger string) *suite {
	s := &suite{sz: sz, seed: seed, seconds: seconds, traced: traced, ledger: ledger,
		fixtures: map[string]*fixture{}}
	if traced {
		s.spans = &spanLog{}
	}
	return s
}

func (s *suite) runAll(names []string) (*results, error) {
	res := &results{Seed: s.seed, Seconds: s.seconds, Traced: s.traced, Workloads: map[string]*outcome{}}
	for i, name := range names {
		r := &run{suite: s, name: name, vals: map[string]float64{}, info: map[string]metricValue{}}
		r.chk.corrupt = s.corrupt
		if s.spans != nil {
			s.spans.begin(i+1, name)
		}
		for _, w := range workloads {
			if w.name == name {
				if err := w.run(r); err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
			}
		}
		o, err := r.outcome()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Workloads[name] = o
	}
	return res, nil
}

// run is one workload's run.
type run struct {
	*suite
	name string
	chk  checker
	vals map[string]float64
	info map[string]metricValue
}

// length is how long the run measures one pass: a traced run measures a
// quarter untraced, then a quarter traced.
func (r *run) length() time.Duration {
	d := r.seconds
	if r.traced {
		d /= 4
	}
	return time.Duration(d * float64(time.Second))
}

// set records a declared metric.
func (r *run) set(name string, v float64) { r.vals[name] = v }

// note records an informational value: printed, never bounded.
func (r *run) note(name string, v float64, unit string) {
	r.info[name] = metricValue{Value: v, Unit: unit}
}

// outcome assembles the run's report: the declared metrics of its mode
// (end-to-end untraced, per-layer traced), everything else measured as
// information.
func (r *run) outcome() (*outcome, error) {
	declared := endToEnd
	if r.traced {
		declared = perLayer
	}
	o := &outcome{Metrics: map[string]metricValue{}, Info: r.info}
	for _, d := range declared {
		v, ok := r.vals[d.Name]
		if !ok && d.appliesTo(r.name) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		o.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name, v := range r.vals {
		d, ok := lookupDef(name)
		if !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
		if _, reported := o.Metrics[name]; !reported {
			o.Info[name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	o.Attempted, o.Failed, o.Notes = r.chk.tally()
	o.Correct = o.Failed == 0
	if o.Attempted > 0 {
		o.Info["error_rate"] = metricValue{Value: float64(o.Failed) / float64(o.Attempted), Unit: "ratio"}
	}
	return o, nil
}

// checker tallies operations and output checks. A failed or refused
// operation and a check mismatch each count as one failure.
type checker struct {
	mu                sync.Mutex
	attempted, failed int64
	notes             []string
	corrupt           bool
}

// ops counts n operations that completed.
func (c *checker) ops(n int) {
	c.mu.Lock()
	c.attempted += int64(n)
	c.mu.Unlock()
}

// expect counts one check or operation, failed unless ok.
func (c *checker) expect(ok bool, what string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, what)
	}
}

// sameLogits checks two logit rows for bitwise equality.
func (c *checker) sameLogits(what string, got, want []float32) {
	c.mu.Lock()
	if c.corrupt && len(got) > 0 {
		c.corrupt = false
		got = append([]float32(nil), got...)
		got[0] = math.Nextafter32(got[0], float32(math.Inf(1)))
	}
	c.mu.Unlock()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = math.Float32bits(got[i]) == math.Float32bits(want[i])
	}
	c.expect(ok, what+": logits differ")
}

func (c *checker) tally() (attempted, failed int64, notes []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, append([]string(nil), c.notes...)
}

// fixture is a trained network the workloads run. Fixtures are rebuilt
// on every run, byte-deterministically, and their build time is not part
// of setup_s.
type fixture struct {
	net *nn.Sequential
	acc float64 // float accuracy on a fixed evaluation set
}

// fixture returns the named fixture, building it on first use: "r20" is
// ResNet-20 at the configured width, "lenet" is LeNet-5. Both train one
// clipped-float phase and then one QAT phase.
func (r *run) fixture(name string) (*fixture, error) {
	if f, ok := r.fixtures[name]; ok {
		return f, nil
	}
	start := time.Now()
	var (
		net           *nn.Sequential
		data, eval    *dataset.Dataset
		epochs        int
		err           error
		classes, seed = 10, int64(1)
	)
	switch name {
	case "r20":
		net, err = models.Build("resnet20", models.Config{Classes: classes, Scale: r.sz.r20Scale, QATBits: 4, Seed: seed})
		data = dataset.SyntheticImages(classes, r.sz.r20Images, 3, 32, 32, 7)
		eval = dataset.SyntheticImages(classes, r.sz.heldOut, 3, 32, 32, 8)
		epochs = 1
	case "lenet":
		net, err = models.Build("lenet5", models.Config{Classes: classes, Scale: 1, QATBits: 4, Seed: seed})
		data = dataset.MNISTLike(r.sz.lenetImages, 7)
		eval = dataset.MNISTLike(r.sz.heldOut, 8)
		epochs = r.sz.lenetEpochs
	default:
		return nil, fmt.Errorf("unknown fixture %q", name)
	}
	if err != nil {
		return nil, err
	}
	opts := train.Options{Epochs: epochs, BatchSize: 16, LR: 0.02, Momentum: 0.9, Decay: 1e-4, Seed: 1}
	models.SetQATRelaxed(net, true)
	if _, err := train.Fit(net, data, opts); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	models.SetQATRelaxed(net, false)
	opts.LR, opts.Seed = 0.01, 2
	if _, err := train.Fit(net, data, opts); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	f := &fixture{net: net, acc: train.Evaluate(net, eval, 64)}
	r.note("fixture_s", time.Since(start).Seconds(), "s")
	r.note("fixture_acc", f.acc, "ratio")
	if r.ledger != "" {
		key, err := ledgerKey(name, r.sz)
		if err != nil {
			return nil, err
		}
		prev, ok, err := checkLedger(r.ledger, key, f.acc)
		if err != nil {
			return nil, err
		}
		r.chk.expect(ok, fmt.Sprintf("fixture %s accuracy %v differs from %v recorded by an earlier run of this binary", name, f.acc, prev))
	}
	r.fixtures[name] = f
	return f, nil
}

// ledgerPath is where a run records each fixture's accuracy, so that later
// runs of the same binary in the same checkout can check that fixtures
// rebuild identically.
const ledgerPath = ".bench_build/fixtures.json"

// ledgerKey names a fixture built by this binary at these sizes.
func ledgerKey(name string, sz sizes) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	return fmt.Sprintf("%s/%v/%s", name, sz, hex.EncodeToString(h.Sum(nil))[:16]), nil
}

// checkLedger compares acc with the value recorded under key, recording
// it when the key is new. It returns the recorded value and whether the
// two agree.
func checkLedger(path, key string, acc float64) (float64, bool, error) {
	m := map[string]float64{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &m); err != nil {
			return 0, false, fmt.Errorf("reading fixture ledger %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return 0, false, err
	}
	if prev, seen := m[key]; seen {
		return prev, prev == acc, nil
	}
	m[key] = acc
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, false, err
	}
	return acc, true, writeJSON(path, m)
}
