package nn

import (
	"testing"

	"repro/internal/tensor"
)

// TestConvTrainStepSteadyStateAllocs pins the allocation behavior of the
// training convolution: the per-sample dCols, weight-gradient and GEMM
// panel buffers must come from the shared scratch pools, not fresh make
// calls (the seed's im2col and transpose buffers no longer exist). The inherent
// per-step allocations are the output and input-gradient tensors
// (~inherentBytes); the seed implementation allocated several megabytes of
// per-sample scratch on top. The bound sits between the two, so a
// regression to per-sample allocation fails loudly while pool churn noise
// does not.
func TestConvTrainStepSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	if raceEnabled {
		t.Skip("race runtime makes sync.Pool lossy and inflates allocations")
	}
	rng := tensor.NewRNG(7)
	conv := NewConv2D("c", 8, 16, 3, 1, 1, true, rng)
	const batch, hw = 16, 16
	x := tensor.New(batch, 8, hw, hw)
	rng.FillUniform(x, -1, 1)
	grad := tensor.New(batch, 16, hw, hw)
	rng.FillUniform(grad, -1, 1)

	step := func() {
		out := conv.Forward(x, true)
		_ = out
		dx := conv.Backward(grad)
		_ = dx
		conv.Weight.ZeroGrad()
		conv.Bias.ZeroGrad()
	}
	// Warm the scratch pools before measuring.
	for i := 0; i < 5; i++ {
		step()
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			step()
		}
	})

	// Inherent: out (batch·16·hw² floats) + dX (batch·8·hw² floats) plus
	// bookkeeping slices. Seed-style per-sample scratch would add
	// ~3 MB/op (cols + dCols + dW per sample + transpose buffers).
	inherentBytes := int64(batch*16*hw*hw*4 + batch*8*hw*hw*4)
	limit := inherentBytes*2 + 256*1024
	if got := r.AllocedBytesPerOp(); got > limit {
		t.Fatalf("train step allocates %d B/op, want <= %d (inherent %d): per-sample scratch is not being pooled",
			got, limit, inherentBytes)
	}
}
