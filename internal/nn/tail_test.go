package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// tailShapes are [N, C, H, W] inputs for the inference tail's pool
// fan-out, at batch 1 and 16. The split ones hold at least two grains, so
// they split on a pool of two or more workers; C and H·W are odd, so at
// batch 1 the chunks differ in length and the element chunks' boundary
// falls mid-plane. The last shape is small enough to run inline.
var tailShapes = []struct {
	shape []int
	split bool
}{{[]int{1, 11, 37, 41}, true}, {[]int{16, 11, 37, 41}, true}, {[]int{16, 3, 5, 7}, false}}

func tailInput(t *testing.T, shape []int, split bool, rng *tensor.RNG) *tensor.Tensor {
	t.Helper()
	x := tensor.New(shape...)
	if split && x.Len() < 2*tensor.ElementwiseGrain {
		t.Fatalf("shape %v holds %d elements, too few to split at grain %d", shape, x.Len(), tensor.ElementwiseGrain)
	}
	rng.FillUniform(x, -3, 3)
	return x
}

func randomBN(name string, c int, rng *tensor.RNG) *BatchNorm2D {
	bn := NewBatchNorm2D(name, c)
	rng.FillUniform(bn.Gamma.W, 0.5, 1.5)
	rng.FillUniform(bn.Beta.W, -0.5, 0.5)
	rng.FillUniform(bn.RunningMean, -1, 1)
	rng.FillUniform(bn.RunningVar, 0.1, 2)
	return bn
}

// serialBNEval is the eval-mode batch-norm loop as it ran on the calling
// goroutine, channel by channel.
func serialBNEval(b *BatchNorm2D, x *tensor.Tensor) *tensor.Tensor {
	n, c, hw := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	out := tensor.New(x.Shape...)
	for ch := 0; ch < c; ch++ {
		sd := float32(math.Sqrt(float64(b.RunningVar.Data[ch]) + float64(b.Eps)))
		scale := b.Gamma.W.Data[ch] / sd
		shift := b.Beta.W.Data[ch] - b.RunningMean.Data[ch]*scale
		for s := 0; s < n; s++ {
			base := (s*c + ch) * hw
			for i := 0; i < hw; i++ {
				out.Data[base+i] = x.Data[base+i]*scale + shift
			}
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d elements, want %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestEvalTailMatchesSerial checks that eval-mode batch-norm and the
// residual add, which run in chunks on the shared pool, equal a serial
// loop bit for bit.
func TestEvalTailMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(19)
	for _, tc := range tailShapes {
		shape := tc.shape
		x := tailInput(t, shape, tc.split, rng)
		c := shape[1]
		bn := randomBN("bn", c, rng)
		sameBits(t, "eval batch-norm", bn.Forward(x, false), serialBNEval(bn, x))

		identity := NewResidual("id", randomBN("id.bn", c, rng), nil, false)
		body := identity.Body.Forward(x, false)
		want := tensor.New(shape...)
		for i := range want.Data {
			want.Data[i] = body.Data[i] + x.Data[i]
		}
		sameBits(t, "identity residual", identity.Forward(x, false), want)

		proj := NewResidual("proj",
			NewSequential("proj.body", NewConv2D("proj.conv", c, c+2, 3, 1, 1, false, rng), randomBN("proj.bn", c+2, rng)),
			NewSequential("proj.sc", NewConv2D("proj.scconv", c, c+2, 1, 1, 0, false, rng), randomBN("proj.scbn", c+2, rng)),
			false)
		body, sc := proj.Body.Forward(x, false), proj.Shortcut.Forward(x, false)
		want = tensor.New(body.Shape...)
		for i := range want.Data {
			want.Data[i] = body.Data[i] + sc.Data[i]
		}
		sameBits(t, "projection residual", proj.Forward(x, false), want)
	}
}
