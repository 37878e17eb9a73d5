package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

const (
	// sparseThreshold realizes a sensitivity of about 0.24 on the
	// ResNet-20 fixture, below the executor's bitplane/GEMM cutover
	// (0.45): the per-output bitplane kernels do the work.
	sparseThreshold = 1.5
	// denseThreshold realizes about 0.69, above the cutover: the
	// executor's int-GEMM branch does the work.
	denseThreshold = 0.5
)

// dataSeed derives the seed of a run's input images from the run's seed;
// fixtures train on fixed seeds, so the two never share images.
func dataSeed(seed int64) int64 { return 1_000_000 + seed }

// batchesOf cuts ds into batch-16 tensors in a seed-shuffled order, and
// into batch-1 tensors of the same images in the same order.
func batchesOf(ds *dataset.Dataset, seed int64) (b16, b1 []*tensor.Tensor) {
	order := tensor.NewRNG(seed).Perm(ds.Len())
	for lo := 0; lo+16 <= len(order); lo += 16 {
		x, _ := ds.Batch(order[lo : lo+16])
		b16 = append(b16, x)
	}
	for _, i := range order {
		x, _ := ds.Batch([]int{i})
		b1 = append(b1, x)
	}
	return b16, b1
}

// alternate runs one call of a, then calls of b for half as long as that
// call of a took, and repeats until length has passed (a at least three
// times). a gets about two thirds of the time and b a third, and both
// sample the host over the whole run: its speed drifts over seconds, so
// two back-to-back phases would each see a different host. It returns
// each call's time in ms; afterA and afterB, when set, run after each
// call outside its timing. Every call counts as an attempted operation.
func (r *run) alternate(length time.Duration, a, b func(i int), afterA, afterB func()) (ta, tb []float64) {
	start := time.Now()
	j := 0
	for i := 0; i < 3 || time.Since(start) < length; i++ {
		t := time.Now()
		a(i)
		ta = append(ta, msSince(t))
		if afterA != nil {
			afterA()
		}
		slot := time.Duration(ta[i] * float64(time.Millisecond) / 2)
		for s := time.Now(); time.Since(s) < slot; j++ {
			t := time.Now()
			b(j)
			tb = append(tb, msSince(t))
			if afterB != nil {
				afterB()
			}
		}
	}
	r.chk.ops(len(ta) + len(tb))
	return ta, tb
}

// runResNet runs resnet20-sparse or resnet20-dense: ODQ inference of the
// ResNet-20 fixture at one threshold, closed loop with one caller,
// alternating batch-16 and batch-1 forwards over held-out images.
func runResNet(r *run, threshold float32, yardsticks bool) error {
	fx, err := r.fixture("r20")
	if err != nil {
		return err
	}
	net := fx.net
	b16, b1 := batchesOf(dataset.SyntheticImages(10, r.sz.heldOut, 3, 32, 32, dataSeed(r.seed)), r.seed)

	var sess *infer.Session
	setup := make([]float64, r.sz.setupReps)
	for i := range setup {
		start := time.Now()
		if sess, err = infer.NewSession(net, "odq", infer.WithThreshold(threshold)); err != nil {
			return err
		}
		sess.Warmup(3, 32, 32)
		setup[i] = time.Since(start).Seconds()
	}
	r.set("setup_s", median(setup))

	sess.Forward(b16[0]) // grow the scratch pools to batch 16 before timing
	heap := startHeapPeak()
	t16, t1 := r.alternate(r.length(),
		func(i int) { sess.Forward(b16[i%len(b16)]) }, func(i int) { sess.Forward(b1[i%len(b1)]) }, nil, nil)
	r.set("heap_live_peak_mb", heap.end())
	throughput := 16e3 / mean(t16)
	r.set("throughput_per_s", throughput)
	r.set("latency_ms_p50", median(t1))
	r.note("latency_ms_p90", quantile(t1, 0.9), "ms")
	r.note("latency_ms_p99", quantile(t1, 0.99), "ms")
	r.note("samples.b16", float64(len(t16)), "count")
	r.note("samples.b1", float64(len(t1)), "count")

	checkResNet(r, net, sess, threshold, b16[0])
	if !r.traced {
		return nil
	}
	return traceResNet(r, net, threshold, b16, b1, yardsticks, throughput)
}

// checkResNet checks batch invariance (each row of a batch-16 forward
// equals the batch-1 forward of its input) and sparse/dense parity (the
// logits equal those of a dense compute-then-select reference session,
// bit for bit).
func checkResNet(r *run, net nn.Module, sess *infer.Session, threshold float32, x *tensor.Tensor) {
	got := sess.Forward(x)
	n, classes := x.Shape[0], got.Shape[1]
	per := x.Len() / n
	for i := 0; i < n; i++ {
		row := sess.Forward(tensor.NewFrom(x.Data[i*per:(i+1)*per], 1, x.Shape[1], x.Shape[2], x.Shape[3]))
		r.chk.sameLogits(fmt.Sprintf("batch-16 row %d vs batch-1", i), got.Data[i*classes:(i+1)*classes], row.Data)
	}
	ref := core.NewExec(threshold, core.WithDenseReference(), core.WithProfiling())
	want := infer.NewSessionFromExecutor(net, "odq-dense-reference", ref, true).Forward(x)
	r.chk.sameLogits("sparse vs dense reference", got.Data, want.Data)
	r.note("check.sensitivity", ref.SensitiveFraction(), "ratio")
	if r.traced {
		reportProfiles(r, ref.Profiles(), float64(n), true)
	}
}

// traceResNet is the traced quarter of a resnet20-* run: the same
// forwards through a session whose executor is wrapped to time every
// conv layer from outside, with the program's spans recorded.
func traceResNet(r *run, net nn.Module, threshold float32, b16, b1 []*tensor.Tensor, yardsticks bool, untraced float64) error {
	sess, err := infer.NewSession(net, "odq", infer.WithThreshold(threshold))
	if err != nil {
		return err
	}
	sess.Forward(b16[0])
	allocs, mb := allocsPerCall(r.sz.allocForward, func() { sess.Forward(b16[0]) })
	r.set("infer.allocs_per_forward.b16", allocs)
	r.set("infer.alloc_mb_per_forward.b16", mb)

	te := &timedExec{Exec: core.NewExec(threshold), ms: map[string]float64{}}
	tsess := infer.NewSessionFromExecutor(net, "odq", te, true)
	tsess.Forward(b16[0]) // pack weight codes and grow pools outside the record
	te.take()
	stop := r.spans.start()
	var sums spanSums
	convMs := map[string]float64{}
	t16, t1 := r.alternate(r.length(),
		func(i int) { tsess.Forward(b16[i%len(b16)]) }, func(i int) { tsess.Forward(b1[i%len(b1)]) },
		func() {
			sums.add(r.spans.harvest())
			for l, ms := range te.take() {
				convMs[l] += ms
			}
		},
		func() {
			r.spans.harvest()
			te.take()
		})
	stop()

	calls := float64(len(t16))
	fwd := mean(t16)
	r.set("infer.forward_ms.b16", fwd)
	r.set("infer.forward_ms.b1", mean(t1))
	var conv float64
	for _, l := range r20Layers {
		ms := convMs[l] / calls
		r.set("core.conv_ms."+l, ms)
		conv += ms
	}
	r.set("nn.nonconv_ms.b16", fwd-conv)
	sums.report(r, calls)
	r.set("trace.overhead_pct", 100*(untraced-16e3/fwd)/untraced)
	r.set("trace.dropped_spans", float64(r.spans.dropped))

	if yardsticks {
		for _, scheme := range []string{"int8", "drq84", "float"} {
			s, err := infer.NewSession(net, scheme)
			if err != nil {
				return err
			}
			s.Forward(b16[0])
			var t []float64
			for start := time.Now(); len(t) < 3 || time.Since(start) < r.length()/8; {
				t0 := time.Now()
				s.Forward(b16[len(t)%len(b16)])
				t = append(t, msSince(t0))
			}
			r.chk.ops(len(t))
			r.set("ref."+scheme+"_forward_ms.b16", mean(t))
		}
	}
	return nil
}

// reportProfiles sets the quant metrics from an executor's per-layer
// profiles: realized sensitivity, and the exact MAC counts per sample the
// predictor ran, the executor ran and the executor skipped. The predictor
// pays one high×high MAC per output tap; the executor pays the three
// remaining partial products only for sensitive outputs.
func reportProfiles(r *run, profiles []*quant.LayerProfile, samples float64, perLayer bool) {
	var sens, total, pred, exec, skipped float64
	for _, p := range profiles {
		taps := float64(p.Geom.ColRows())
		sens += float64(p.SensitiveOutputs)
		total += float64(p.TotalOutputs)
		pred += float64(p.TotalOutputs) * taps
		exec += 3 * float64(p.SensitiveOutputs) * taps
		skipped += 3 * float64(p.TotalOutputs-p.SensitiveOutputs) * taps
		if perLayer {
			r.set("quant.sensitivity."+p.Name, p.SensitivityRatio())
		}
	}
	if total > 0 {
		r.set("quant.sensitivity", sens/total)
	}
	r.set("quant.macs_predictor.per_sample", pred/samples)
	r.set("quant.macs_executor.per_sample", exec/samples)
	r.set("quant.macs_skipped.per_sample", skipped/samples)
}

// timedExec wraps the ODQ executor and times each Conv call per layer
// from outside it; InvalidateCache passes through to the wrapped
// executor.
type timedExec struct {
	*core.Exec
	mu sync.Mutex
	ms map[string]float64
}

func (t *timedExec) Conv(x *tensor.Tensor, layer *nn.Conv2D) *tensor.Tensor {
	start := time.Now()
	out := t.Exec.Conv(x, layer)
	d := msSince(start)
	t.mu.Lock()
	t.ms[layer.Name] += d
	t.mu.Unlock()
	return out
}

// take returns the per-layer ms since the last take and starts over.
func (t *timedExec) take() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := t.ms
	t.ms = map[string]float64{}
	return ms
}
