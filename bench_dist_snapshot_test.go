package repro_bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// ---------- Scale-out snapshot (BENCH_dist.json) ----------
//
// Two layers are measured:
//
//   - Data-parallel QAT: group-synchronous training at 1/2/4 workers over
//     the in-process loopback transport, plus the reduce cost and the
//     single-batch step cost that feed the critical-path projection.
//   - Replicated serving: the batcher feeding 1/2/4 resident sessions
//     round-robin, plus the raw batch-forward cost for the projection.
//
// On a host with fewer cores than W, the W goroutines time-slice and
// measured walls flatten. The snapshot therefore records BOTH the honest
// measured walls on the recording host (with host_cpus alongside) and a
// critical-path projection whose formula is
// embedded in the JSON: compute shrinks with W (each worker owns
// ceil(G/W) of the group's batches; each replica owns 1/R of the
// batches) while the measured serial terms (reduce, batch formation)
// stay. On a host with >= W cores the projection is what the wall
// converges to.

const (
	distBenchGroup  = 4
	distBenchBatch  = 16
	distBenchTrials = 3
)

var distBenchWorlds = []int{1, 2, 4}

func distBenchNet(t *testing.T, seed int64) *nn.Sequential {
	t.Helper()
	net, err := models.Build("lenet5", models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// distFitWall times one fixed QAT workload (same trajectory at every
// worker count: equal sync group) run by W loopback workers, returning
// the wall clock for the whole fit.
func distFitWall(t *testing.T, world int) time.Duration {
	t.Helper()
	ds := dataset.MNISTLike(128, 900)
	opts := train.Options{
		Epochs: 2, BatchSize: distBenchBatch, LR: 0.02,
		Momentum: 0.9, Decay: 1e-4, Seed: 9,
		LRDropEvery: 2, GroupSize: distBenchGroup,
	}
	if world == 1 {
		net := distBenchNet(t, 9)
		o := opts
		o.Reducer = dist.Local{}
		start := time.Now()
		if _, err := train.Fit(net, ds, o); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	groups, err := dist.Loopback(world)
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*nn.Sequential, world)
	for r := range nets {
		nets[r] = distBenchNet(t, 9)
	}
	errs := make([]error, world)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opts
			o.Reducer = dist.NewReducer(groups[r])
			_, errs[r] = train.Fit(nets[r], ds, o)
		}(r)
	}
	wg.Wait()
	wall := time.Since(start)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", r, err)
		}
	}
	return wall
}

// distBatchStepNs times one single-batch QAT train step (forward,
// backward, optimizer) — the compute unit the projection scales by
// ceil(G/W).
func distBatchStepNs(t *testing.T) int64 {
	t.Helper()
	net := distBenchNet(t, 9)
	rng := tensor.NewRNG(77)
	x := tensor.New(distBenchBatch, 1, 28, 28)
	rng.FillUniform(x, -1, 1)
	y := make([]int, distBenchBatch)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	opt := train.NewSGD(0.02, 0.9, 1e-4)
	params := net.Params()
	train.Step(net, x, y, opt, params) // warm scratch pools
	res := minOf3(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			train.Step(net, x, y, opt, params)
		}
	})
	return res.NsPerOp()
}

// distReduceNs times one group reduce round at the model's gradient
// size: W loopback ranks each contribute their rank-strided share of
// the group and fold. Returns the per-round wall on rank 0, min over
// rounds.
func distReduceNs(t *testing.T, world int) int64 {
	t.Helper()
	gradLen := 0
	for _, p := range distBenchNet(t, 9).Params() {
		gradLen += len(p.W.Data)
	}
	reducers := make([]dist.GradReducer, world)
	if world == 1 {
		reducers[0] = dist.Local{}
	} else {
		groups, err := dist.Loopback(world)
		if err != nil {
			t.Fatal(err)
		}
		for r := range reducers {
			reducers[r] = dist.NewReducer(groups[r])
		}
		defer func() {
			for _, red := range reducers {
				red.Close() //nolint:errcheck
			}
		}()
	}
	contrib := func(rank int) []dist.BatchGrad {
		var own []dist.BatchGrad
		for j := rank; j < distBenchGroup; j += world {
			g := make([]float32, gradLen)
			for i := range g {
				g[i] = float32(j + 1)
			}
			own = append(own, dist.BatchGrad{Index: j, Loss: 1, Correct: 1, Seen: distBenchBatch, Grad: g})
		}
		return own
	}
	const rounds = 8
	best := int64(math.MaxInt64)
	var wg sync.WaitGroup
	walls := make([]int64, rounds)
	for r := 1; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sum := make([]float32, gradLen)
			own := contrib(r)
			for step := 0; step < rounds; step++ {
				if _, err := reducers[r].Reduce(int64(step), distBenchGroup, own, sum); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	sum := make([]float32, gradLen)
	own := contrib(0)
	for step := 0; step < rounds; step++ {
		start := time.Now()
		if _, err := reducers[0].Reduce(int64(step), distBenchGroup, own, sum); err != nil {
			t.Fatal(err)
		}
		walls[step] = time.Since(start).Nanoseconds()
	}
	wg.Wait()
	for _, w := range walls[1:] { // round 0 is warmup
		if w < best {
			best = w
		}
	}
	return best
}

// distTCPReduceNs times one 2-rank group reduce round over real
// loopback TCP links formed by the elastic join, with its liveness
// layer (heartbeat senders + per-frame deadlines) armed as on every TCP
// fleet.
func distTCPReduceNs(t *testing.T) int64 {
	t.Helper()
	gradLen := 0
	for _, p := range distBenchNet(t, 9).Params() {
		gradLen += len(p.W.Data)
	}
	opts := dist.ElasticOptions{
		JoinTimeout:       30 * time.Second,
		RegroupTimeout:    5 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
	}
	coord, err := dist.ElasticListen("127.0.0.1:0", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close() //nolint:errcheck
	w := dist.NewElasticWorker(coord.Addr(), 2, opts)
	defer w.Close() //nolint:errcheck
	type joinRes struct {
		g   *dist.Group
		err error
	}
	ch := make(chan joinRes, 1)
	go func() {
		g, jerr := w.Join()
		ch <- joinRes{g, jerr}
	}()
	g0, err := coord.Join()
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	g1 := r.g
	defer g0.Close() //nolint:errcheck
	defer g1.Close() //nolint:errcheck

	contrib := func(rank int) []dist.BatchGrad {
		var own []dist.BatchGrad
		for j := rank; j < distBenchGroup; j += 2 {
			g := make([]float32, gradLen)
			for i := range g {
				g[i] = float32(j + 1)
			}
			own = append(own, dist.BatchGrad{Index: j, Loss: 1, Correct: 1, Seen: distBenchBatch, Grad: g})
		}
		return own
	}
	const rounds = 8
	red0, red1 := dist.NewReducer(g0), dist.NewReducer(g1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sum := make([]float32, gradLen)
		own := contrib(1)
		for step := 0; step < rounds; step++ {
			if _, err := red1.Reduce(int64(step), distBenchGroup, own, sum); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	best := int64(math.MaxInt64)
	sum := make([]float32, gradLen)
	own := contrib(0)
	for step := 0; step < rounds; step++ {
		start := time.Now()
		if _, err := red0.Reduce(int64(step), distBenchGroup, own, sum); err != nil {
			t.Fatal(err)
		}
		if w := time.Since(start).Nanoseconds(); step > 0 && w < best { // round 0 is warmup
			best = w
		}
	}
	wg.Wait()
	return best
}

// ---------- Serving side ----------

func distServeSessions(t *testing.T, n int) []*infer.Session {
	t.Helper()
	sessions := make([]*infer.Session, n)
	for i := range sessions {
		s, err := infer.NewSession(distBenchNet(t, 30), "odq", infer.WithThreshold(0.5))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	return sessions
}

// distForwardNs times one raw MaxBatch forward on a lone session — the
// compute unit each replica executes.
func distForwardNs(t *testing.T) int64 {
	t.Helper()
	sess := distServeSessions(t, 1)[0]
	rng := tensor.NewRNG(31)
	x := tensor.New(distBenchBatch, 1, 28, 28)
	rng.FillUniform(x, -1, 1)
	sess.Forward(x) // warm
	res := minOf3(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess.Forward(x)
		}
	})
	return res.NsPerOp()
}

// distServeQPS floods a fresh R-replica server with a fixed request
// storm and returns (requests/sec, mean batch size, batches run).
func distServeQPS(t *testing.T, replicas int) (qps, meanBatch float64, batches int64) {
	t.Helper()
	const requests = 256
	srv, err := serve.NewReplicated(distServeSessions(t, replicas), serve.Config{
		InputC: 1, InputH: 28, InputW: 28,
		MaxBatch: distBenchBatch, BatchDeadline: 2 * time.Millisecond,
		QueueDepth: requests,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	input := make([]float32, 28*28)
	rng := tensor.NewRNG(32)
	for i := range input {
		input[i] = rng.Float32()*2 - 1
	}
	// Enough in-flight clients to fill MaxBatch-deep batches, so the
	// measured per-batch cost and forward_batch_ns describe the same
	// batch size.
	const clients = 32
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests/clients; i++ {
				r, err := srv.Submit(input)
				if err != nil {
					t.Error(err)
					return
				}
				<-r
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	st := srv.Stats()
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return float64(requests) / wall.Seconds(), st.MeanBatch, st.Batches
}

// ---------- Committed snapshot ----------

// DistTrainMeasured is one measured fit wall at a worker count.
type DistTrainMeasured struct {
	Workers     int     `json:"workers"`
	FitWallNs   int64   `json:"fit_wall_ns"`
	StepsPerSec float64 `json:"group_steps_per_sec"`
}

// DistServeMeasured is one measured request storm at a replica count.
type DistServeMeasured struct {
	Replicas  int     `json:"replicas"`
	QPS       float64 `json:"qps"`
	MeanBatch float64 `json:"mean_batch"`
}

// DistBenchSnapshot is the BENCH_dist.json schema.
type DistBenchSnapshot struct {
	HostCPUs  int    `json:"host_cpus"`
	Note      string `json:"note"`
	GroupSize int    `json:"group_size"`
	MaxBatch  int    `json:"max_batch"`

	TrainFormula          string              `json:"train_formula"`
	BatchStepNs           int64               `json:"batch_step_ns"`
	ReduceNs              map[string]int64    `json:"reduce_ns"`
	TCPReduceHBNs         int64               `json:"tcp_reduce_hb_ns"`
	TrainMeasured         []DistTrainMeasured `json:"train_measured"`
	ProjectedGroupStepNs  map[string]int64    `json:"projected_group_step_ns"`
	ProjectedTrainSpeedup map[string]float64  `json:"projected_train_speedup_vs_1w"`

	ServeFormula        string              `json:"serve_formula"`
	ForwardBatchNs      int64               `json:"forward_batch_ns"`
	BatchOverheadNs     int64               `json:"batch_overhead_ns"`
	ServeMeasured       []DistServeMeasured `json:"serve_measured"`
	ProjectedQPS        map[string]float64  `json:"projected_qps"`
	ProjectedQPSSpeedup map[string]float64  `json:"projected_qps_speedup_vs_1r"`
}

// TestDistBenchSnapshot regenerates BENCH_dist.json. Env-gated so CI
// never depends on timing:
//
//	DIST_BENCH_SNAPSHOT=1 go test -run TestDistBenchSnapshot -v .
func TestDistBenchSnapshot(t *testing.T) {
	if os.Getenv("DIST_BENCH_SNAPSHOT") != "1" {
		t.Skip("set DIST_BENCH_SNAPSHOT=1 to regenerate BENCH_dist.json")
	}
	snap := &DistBenchSnapshot{
		HostCPUs:  runtime.NumCPU(),
		GroupSize: distBenchGroup,
		MaxBatch:  distBenchBatch,
		Note: "measured_* walls are from the recording host; with fewer than W host_cpus concurrent " +
			"workers/replicas time-slice and measured scaling flattens. projected_* applies " +
			"the embedded critical-path formulas to the measured per-batch compute and the measured " +
			"serial terms (reduce round, batch formation), which is what the wall converges to once " +
			"the host has >= W cores.",
		TrainFormula: fmt.Sprintf("projected_group_step_ns[W] = batch_step_ns * ceil(G/W) + reduce_ns[W], G=%d", distBenchGroup),
		ServeFormula: "projected_qps[R] = mean_batch * 1e9 / (batch_overhead_ns + forward_batch_ns / R)",
		ReduceNs:     map[string]int64{}, ProjectedGroupStepNs: map[string]int64{},
		ProjectedTrainSpeedup: map[string]float64{},
		ProjectedQPS:          map[string]float64{}, ProjectedQPSSpeedup: map[string]float64{},
	}

	// Training: interleave the worker counts across trials so drift in
	// machine load hits every variant equally; keep the best trial.
	snap.BatchStepNs = distBatchStepNs(t)
	bestFit := map[int]time.Duration{}
	for rep := 0; rep < distBenchTrials; rep++ {
		for _, w := range distBenchWorlds {
			wall := distFitWall(t, w)
			if cur, ok := bestFit[w]; !ok || wall < cur {
				bestFit[w] = wall
			}
		}
	}
	const groupSteps = 4 // 128 samples x 2 epochs / batch 16 / group 4
	for _, w := range distBenchWorlds {
		snap.ReduceNs[fmt.Sprint(w)] = distReduceNs(t, w)
		snap.TrainMeasured = append(snap.TrainMeasured, DistTrainMeasured{
			Workers:     w,
			FitWallNs:   bestFit[w].Nanoseconds(),
			StepsPerSec: groupSteps / bestFit[w].Seconds(),
		})
		batchesPerWorker := (distBenchGroup + w - 1) / w
		snap.ProjectedGroupStepNs[fmt.Sprint(w)] =
			snap.BatchStepNs*int64(batchesPerWorker) + snap.ReduceNs[fmt.Sprint(w)]
	}
	for _, w := range distBenchWorlds[1:] {
		snap.ProjectedTrainSpeedup[fmt.Sprint(w)] =
			float64(snap.ProjectedGroupStepNs["1"]) / float64(snap.ProjectedGroupStepNs[fmt.Sprint(w)])
	}
	// The same 2-rank reduce over real TCP links, heartbeats armed.
	for rep := 0; rep < distBenchTrials; rep++ {
		if ns := distTCPReduceNs(t); rep == 0 || ns < snap.TCPReduceHBNs {
			snap.TCPReduceHBNs = ns
		}
	}

	// Serving: same interleaving across replica counts.
	snap.ForwardBatchNs = distForwardNs(t)
	type serveBest struct {
		qps, meanBatch float64
		batches        int64
	}
	bestServe := map[int]serveBest{}
	for rep := 0; rep < distBenchTrials; rep++ {
		for _, r := range distBenchWorlds {
			qps, mb, batches := distServeQPS(t, r)
			if cur, ok := bestServe[r]; !ok || qps > cur.qps {
				bestServe[r] = serveBest{qps, mb, batches}
			}
		}
	}
	// Measured end-to-end cost of one dispatched batch at R=1; what is
	// left after subtracting the raw forward is the serial batching term.
	one := bestServe[1]
	perBatchNs := one.meanBatch * 1e9 / one.qps
	snap.BatchOverheadNs = int64(math.Max(0, perBatchNs-float64(snap.ForwardBatchNs)))
	for _, r := range distBenchWorlds {
		b := bestServe[r]
		snap.ServeMeasured = append(snap.ServeMeasured, DistServeMeasured{
			Replicas: r, QPS: b.qps, MeanBatch: b.meanBatch,
		})
		snap.ProjectedQPS[fmt.Sprint(r)] =
			one.meanBatch * 1e9 / (float64(snap.BatchOverheadNs) + float64(snap.ForwardBatchNs)/float64(r))
	}
	for _, r := range distBenchWorlds[1:] {
		snap.ProjectedQPSSpeedup[fmt.Sprint(r)] = snap.ProjectedQPS[fmt.Sprint(r)] / snap.ProjectedQPS["1"]
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_dist.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("train: batch_step=%dns reduce=%v projected speedups %v (measured %v)",
		snap.BatchStepNs, snap.ReduceNs, snap.ProjectedTrainSpeedup, snap.TrainMeasured)
	t.Logf("serve: forward=%dns overhead=%dns projected qps %v speedups %v (measured %v)",
		snap.ForwardBatchNs, snap.BatchOverheadNs, snap.ProjectedQPS, snap.ProjectedQPSSpeedup, snap.ServeMeasured)
}
