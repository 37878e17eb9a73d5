package infer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// buildPackedTestNet builds a small flat sequential net covering the
// fusion patterns the pipeline must handle: a float first conv (tail-only
// convention), a conv+bn+act+pool group, and a conv+act group with odd
// channel counts (odd im2col lane counts → bitplane tail words) and odd
// spatial output (odd code count → nibble tail).
func buildPackedTestNet(rng *tensor.RNG) *nn.Sequential {
	randomizeBN := func(bn *nn.BatchNorm2D) {
		for ch := 0; ch < bn.C; ch++ {
			bn.RunningMean.Data[ch] = 0.1 * float32(rng.Normal())
			bn.RunningVar.Data[ch] = 0.5 + rng.Float32()
			bn.Gamma.W.Data[ch] = 0.5 + rng.Float32()
			bn.Beta.W.Data[ch] = 0.1 * float32(rng.Normal())
		}
	}
	act := func(name string, rangeV float32) *quant.QuantReLU {
		a := quant.NewQuantReLU(name, 4)
		a.Range = rangeV
		return a
	}
	conv0 := nn.NewConv2D("conv0", 3, 5, 3, 1, 1, true, rng)
	bn0 := nn.NewBatchNorm2D("bn0", 5)
	randomizeBN(bn0)
	conv1 := nn.NewConv2D("conv1", 5, 7, 3, 1, 1, true, rng)
	bn1 := nn.NewBatchNorm2D("bn1", 7)
	randomizeBN(bn1)
	conv2 := nn.NewConv2D("conv2", 7, 7, 3, 1, 1, false, rng)
	return nn.NewSequential("net",
		conv0, bn0, act("act0", 1),
		conv1, bn1, act("act1", 1.7), nn.NewMaxPool2D("pool1", 2, 2),
		conv2, act("act2", 0.9),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 7*3*3, 4, rng),
	)
}

// TestPackedPipelineBitIdentical is the tentpole acceptance test: the
// packed-domain multi-layer forward must be bit-identical to the float
// round-trip path (executor → float → QuantReLU → re-code) on the same
// net with the same executor, across thresholds, including odd channel
// counts, bitplane tail lanes and nibble tail elements.
func TestPackedPipelineBitIdentical(t *testing.T) {
	for _, th := range []float32{-1, 0, 0.5, 1.0, 1e9} {
		rng := tensor.NewRNG(77)
		net := buildPackedTestNet(rng)
		x := tensor.New(3, 3, 7, 7)
		rng.FillUniform(x, -0.2, 1.2)

		e := core.NewExec(th)
		sess := NewSessionFromExecutor(net, "odq", e, true)
		want := sess.Forward(x)

		if err := sess.EnablePackedDomain(); err != nil {
			t.Fatalf("th=%v: EnablePackedDomain: %v", th, err)
		}
		if got := sess.Pipeline().FusedConvs(); got != 2 {
			t.Fatalf("th=%v: fused %d convs, want 2", th, got)
		}
		got := sess.Forward(x)
		sess.Close()

		if len(got.Data) != len(want.Data) {
			t.Fatalf("th=%v: output length %d vs %d", th, len(got.Data), len(want.Data))
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("th=%v: output %d differs: packed %v float %v", th, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPackedPipelineLegacyExecutorParity cross-checks the packed pipeline
// against the dense-reference executor on the float round-trip path end
// to end: two independent implementations of the same arithmetic must
// agree bit-for-bit.
func TestPackedPipelineLegacyExecutorParity(t *testing.T) {
	rng := tensor.NewRNG(78)
	net := buildPackedTestNet(rng)
	x := tensor.New(2, 3, 7, 7)
	rng.FillUniform(x, 0, 1)

	ref := NewSessionFromExecutor(net, "odq", core.NewExec(0.6, core.WithDenseReference()), true)
	want := ref.Forward(x)
	ref.Close()

	sess := NewSessionFromExecutor(net, "odq", core.NewExec(0.6), true)
	if err := sess.EnablePackedDomain(); err != nil {
		t.Fatalf("EnablePackedDomain: %v", err)
	}
	got := sess.Forward(x)
	sess.Close()
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output %d differs: packed-bitplane %v dense reference %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestPackedDomainRequiresODQ pins the error paths: non-ODQ schemes and
// relaxed activations must refuse packed-domain compilation.
func TestPackedDomainRequiresODQ(t *testing.T) {
	rng := tensor.NewRNG(79)
	net := buildPackedTestNet(rng)
	sess, err := NewSession(net, "int8")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.EnablePackedDomain(); err == nil {
		t.Fatal("packed domain must be rejected for the int8 scheme")
	}
	sess.Close()

	// Relaxed activations have nothing to requantize: no fusable group.
	net2 := buildPackedTestNet(rng)
	for _, m := range net2.Modules {
		if a, ok := m.(*quant.QuantReLU); ok {
			a.Relaxed = true
		}
	}
	sess2 := NewSessionFromExecutor(net2, "odq", core.NewExec(0.5), true)
	if err := sess2.EnablePackedDomain(); err == nil {
		t.Fatal("packed domain must be rejected when activations are relaxed")
	}
	sess2.Close()
}

// TestPackedDomainSessionOption checks the construction-time opt-in and
// that reloadable state (threshold via exec, weight invalidation) keeps
// working through the pipeline.
func TestPackedDomainSessionOption(t *testing.T) {
	rng := tensor.NewRNG(80)
	net := buildPackedTestNet(rng)
	sess, err := NewSession(net, "odq", WithThreshold(0.5), WithPackedDomain())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !sess.PackedDomain() {
		t.Fatal("session must report packed domain enabled")
	}
	x := tensor.New(1, 3, 7, 7)
	rng.FillUniform(x, 0, 1)
	out1 := sess.Forward(x)

	// Mutating weights + Invalidate must change the result (cache really
	// dropped), and stay stable afterwards.
	for _, m := range net.Modules {
		if c, ok := m.(*nn.Conv2D); ok && c.Name == "conv1" {
			c.Weight.W.Scale(2)
		}
	}
	sess.Invalidate()
	out2 := sess.Forward(x)
	if tensor.MaxAbsDiff(out1, out2) == 0 {
		t.Fatal("invalidation must pick up rescaled weights through the packed pipeline")
	}
	out3 := sess.Forward(x)
	if tensor.MaxAbsDiff(out2, out3) != 0 {
		t.Fatal("packed pipeline must be deterministic after invalidation")
	}
	sess.Close()
}
