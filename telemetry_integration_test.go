package repro_bench

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// withTelemetry swaps in a fresh registry, enables collection, and
// restores the previous state when the test ends, so the process-global
// telemetry switch never leaks between tests.
func withTelemetry(t *testing.T) *telemetry.Registry {
	t.Helper()
	r := telemetry.NewRegistry()
	prev := telemetry.SetDefault(r)
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.SetDefault(prev)
	})
	return r
}

// qatNet builds a small QAT CNN: three 3×3 conv stages (32→64→64
// channels, DoReFa 4-bit weight quantizers, QuantReLU activations) and a
// linear classifier, on 3×32×32 inputs.
func qatNet(rng *tensor.RNG) nn.Module {
	qrelu := func(name string) nn.Module {
		q := quant.NewQuantReLU(name, 4)
		q.Range = 3
		return q
	}
	conv := func(name string, inC, outC int) nn.Module {
		c := nn.NewConv2D(name, inC, outC, 3, 1, 1, true, rng)
		c.WeightQuant = &quant.WeightQuantizer{Bits: 4}
		return c
	}
	return nn.NewSequential("qatcnn",
		conv("c1", 3, 32), qrelu("q1"), nn.NewMaxPool2D("p1", 2, 2),
		conv("c2", 32, 64), qrelu("q2"), nn.NewMaxPool2D("p2", 2, 2),
		conv("c3", 64, 64), qrelu("q3"),
		nn.NewFlatten("flat"), nn.NewLinear("fc", 64*8*8, 10, rng),
	)
}

// qatBatch draws one batch of 32 inputs and labels for qatNet.
func qatBatch(rng *tensor.RNG) (*tensor.Tensor, []int) {
	x := tensor.New(32, 3, 32, 32)
	rng.FillUniform(x, -1, 1)
	y := make([]int, 32)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	return x, y
}

// TestTelemetryParityQATStep checks instrumentation parity for training:
// two identically seeded QAT networks stepped on the same batch, one with
// telemetry enabled and one without, must produce bit-identical losses
// and parameters. Telemetry may only observe the computation, never
// perturb it.
func TestTelemetryParityQATStep(t *testing.T) {
	run := func(instrument bool) (losses []float32, netOut nn.Module) {
		if instrument {
			r := telemetry.NewRegistry()
			prev := telemetry.SetDefault(r)
			telemetry.Enable()
			defer func() {
				telemetry.Disable()
				telemetry.SetDefault(prev)
			}()
		}
		net := qatNet(tensor.NewRNG(42))
		x, y := qatBatch(tensor.NewRNG(43))
		opt := train.NewSGD(0.01, 0.9, 1e-4)
		params := net.Params()
		for i := 0; i < 3; i++ {
			loss, _ := train.Step(net, x, y, opt, params)
			losses = append(losses, loss)
		}
		return losses, net
	}
	lossOff, netOff := run(false)
	lossOn, netOn := run(true)
	for i := range lossOff {
		if lossOff[i] != lossOn[i] {
			t.Fatalf("step %d loss diverged: disabled %v enabled %v", i, lossOff[i], lossOn[i])
		}
	}
	pOff, pOn := netOff.Params(), netOn.Params()
	for i := range pOff {
		for j := range pOff[i].W.Data {
			if pOff[i].W.Data[j] != pOn[i].W.Data[j] {
				t.Fatalf("param %s[%d] diverged: disabled %v enabled %v",
					pOff[i].Name, j, pOff[i].W.Data[j], pOn[i].W.Data[j])
			}
		}
	}
}

// TestTelemetryParityODQInference checks instrumentation parity for the
// ODQ inference path: the executor's outputs must be bit-identical with
// telemetry enabled and disabled.
func TestTelemetryParityODQInference(t *testing.T) {
	run := func(instrument bool) *tensor.Tensor {
		if instrument {
			r := telemetry.NewRegistry()
			prev := telemetry.SetDefault(r)
			telemetry.Enable()
			defer func() {
				telemetry.Disable()
				telemetry.SetDefault(prev)
			}()
		}
		conv, x := benchConvLayer()
		conv.Exec = core.NewExec(0.5)
		defer func() { conv.Exec = nil }()
		return conv.Forward(x, false)
	}
	off := run(false)
	on := run(true)
	if len(off.Data) != len(on.Data) {
		t.Fatalf("output size diverged: %d vs %d", len(off.Data), len(on.Data))
	}
	for i := range off.Data {
		if off.Data[i] != on.Data[i] {
			t.Fatalf("output[%d] diverged: disabled %v enabled %v", i, off.Data[i], on.Data[i])
		}
	}
}

// TestTelemetrySensitivityRatio pins the per-layer sensitivity-ratio
// telemetry to the executor's own profiler across the odqBenchGrid
// scenarios (~30%, ~60%, 100% sensitive): for each, a fresh registry must
// report layer.c.sensitivity_ratio equal to Exec.SensitiveFraction.
func TestTelemetrySensitivityRatio(t *testing.T) {
	conv, x := benchConvLayer()
	for _, p := range odqBenchGrid {
		// Bisect with telemetry off so probe runs don't pollute the ratio.
		th := thresholdForSensitivity(conv, x, p.target, nil)
		t.Run(p.name, func(t *testing.T) {
			withTelemetry(t)
			e := core.NewExec(th, core.WithProfiling())
			conv.Exec = e
			defer func() { conv.Exec = nil }()
			conv.Forward(x, false)

			snap := telemetry.Snapshot()
			got, ok := snap.Gauges["layer.c.sensitivity_ratio"]
			if !ok {
				t.Fatalf("layer.c.sensitivity_ratio missing from snapshot (gauges: %v)", snap.Gauges)
			}
			want := e.SensitiveFraction()
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: telemetry ratio %v != profiler fraction %v", p.name, got, want)
			}
			if p.target >= 1 && got != 1 {
				t.Fatalf("sens100 must be exactly 1, got %v", got)
			}
			// The raw counters must agree with the ratio they feed.
			sens := snap.Counters["layer.c.sensitive"]
			tot := snap.Counters["layer.c.outputs"]
			if tot == 0 || float64(sens)/float64(tot) != got {
				t.Fatalf("counter ratio %d/%d inconsistent with gauge %v", sens, tot, got)
			}
		})
	}
}

// TestTelemetryODQConvCounters checks the executor-level counters and
// spans emitted by one instrumented ODQ conv: conv/predictor/executor
// spans present, partial-product accounting consistent with the 2-bit
// predictor (one high×high MAC per tap) and the sparse executor (three
// partials per sensitive output).
func TestTelemetryODQConvCounters(t *testing.T) {
	// The executor-level counters are package-var handles bound to the
	// process-default registry at init, so measure deltas there instead of
	// swapping in a fresh registry (which only dynamic per-layer names and
	// spans would follow).
	r := telemetry.Default()
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	r.ResetSpans()
	before := telemetry.Snapshot()

	conv, x := benchConvLayer()
	e := core.NewExec(0.5, core.WithProfiling())
	conv.Exec = e
	defer func() { conv.Exec = nil }()
	conv.Forward(x, false)

	snap := telemetry.Snapshot()
	if got := snap.Counters["odq.convs"] - before.Counters["odq.convs"]; got != 1 {
		t.Fatalf("odq.convs delta = %d, want 1", got)
	}
	pred := snap.Counters["odq.predictor.partial_products"] - before.Counters["odq.predictor.partial_products"]
	exec := snap.Counters["odq.executor.partial_products"] - before.Counters["odq.executor.partial_products"]
	profs := e.Profiles()
	if len(profs) != 1 {
		t.Fatalf("want 1 profile, got %d", len(profs))
	}
	lp := profs[0]
	macsPerOut := lp.TotalMACs / lp.TotalOutputs
	if want := lp.TotalOutputs * macsPerOut; pred != want {
		t.Fatalf("predictor partial products %d, want %d", pred, want)
	}
	if want := 3 * lp.SensitiveOutputs * macsPerOut; exec != want {
		t.Fatalf("executor partial products %d, want %d", exec, want)
	}

	names := map[string]bool{}
	for _, ev := range r.TraceEvents() {
		names[ev.Name] = true
	}
	for _, want := range []string{"odq.conv", "odq.predictor", "odq.executor", "nn.conv.forward"} {
		if !names[want] {
			t.Fatalf("trace missing span %q (have %v)", want, names)
		}
	}

	// At threshold 0 every output is sensitive. The paper's 4/2 split
	// still runs the bitplane row kernels and no GEMM; every other split
	// (here 8/4) runs the int-GEMM path, which routes through the blocked
	// GEMM kernels and must keep emitting their spans. Neither depends on
	// the host's kernel set.
	spanNames := func(opts ...core.Option) map[string]bool {
		r.ResetSpans()
		conv.Exec = core.NewExec(0, opts...)
		conv.Forward(x, false)
		names := map[string]bool{}
		for _, ev := range r.TraceEvents() {
			names[ev.Name] = true
		}
		return names
	}
	fused := spanNames()
	gemm := spanNames(core.WithBits(8), core.WithPredBits(4))
	for _, want := range []string{"gemm.pack", "gemm.kernel"} {
		if fused[want] {
			t.Fatalf("all-sensitive 4/2 ODQ conv ran span %q (have %v)", want, fused)
		}
		if !gemm[want] {
			t.Fatalf("int-GEMM path trace missing span %q (have %v)", want, gemm)
		}
	}
}
