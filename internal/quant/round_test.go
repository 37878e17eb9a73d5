package quant

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The math.Round expressions the four activation-grid sites used before
// add-and-truncate rounding, kept as the oracle. ActQuantizer's is
// QuantReLU's at Range 1.

func oracleQuantReLU(v, r, levels float32, relaxed bool) float32 {
	v /= r
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	if !relaxed {
		v = float32(math.Round(float64(v*levels))) / levels
	}
	return v
}

func oracleRequant(v, r, levels float32) uint8 {
	v /= r
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return uint8(math.Round(float64(v * levels)))
}

func oracleActCode(v float32, fl float64) int32 {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return int32(math.Round(float64(v) * fl))
}

// checkRoundForms compares roundCode with math.Round on v in both operand
// forms the activation sites use: the float32 product and the exact
// float64 product.
func checkRoundForms(t *testing.T, v float32, bits int) {
	t.Helper()
	levels := float32(ActLevels(bits))
	x32 := float64(v * levels)
	if got, want := roundCode(x32), int32(math.Round(x32)); got != want {
		t.Fatalf("bits %d v %v (%#08x): float32 form rounds %v to %d, want %d",
			bits, v, math.Float32bits(v), x32, got, want)
	}
	x64 := float64(v) * float64(levels)
	if got, want := roundCode(x64), int32(math.Round(x64)); got != want {
		t.Fatalf("bits %d v %v (%#08x): float64 form rounds %v to %d, want %d",
			bits, v, math.Float32bits(v), x64, got, want)
	}
}

// TestRoundCodeMatchesMathRound sweeps float32 values in [0, 1]: a strided
// sweep plus the neighbourhood of every half-way point k+0.5, where ties
// and near-ties live, at 2, 4, 8 and 16 bits, and outside short mode and
// -race every float32 in [0, 1] at 4 bits (about a billion per form).
func TestRoundCodeMatchesMathRound(t *testing.T) {
	one := math.Float32bits(1)
	for _, bits := range []int{2, 4, 8, 16} {
		for u := uint32(0); u <= one; u += 997 {
			checkRoundForms(t, math.Float32frombits(u), bits)
		}
		levels := float32(ActLevels(bits))
		for k := 0; k < int(levels); k++ {
			mid := math.Float32bits((float32(k) + 0.5) / levels)
			for u := mid - 4; u <= mid+4; u++ {
				checkRoundForms(t, math.Float32frombits(u), bits)
			}
		}
	}
	// A tie the sweep above must have met: half away from zero, not even.
	if v := float32(1.0/30) * 15; v != 0.5 || roundCode(float64(v)) != 1 {
		t.Fatalf("float32(1/30)*15 = %v rounds to %d, want the tie 0.5 rounding to 1", v, roundCode(float64(v)))
	}
	if testing.Short() || raceEnabled {
		return
	}
	levels := float32(ActLevels(4))
	fl := float64(levels)
	for u := uint32(0); u <= one; u++ {
		v := math.Float32frombits(u)
		x32, x64 := float64(v*levels), float64(v)*fl
		if roundCode(x32) != int32(math.Round(x32)) || roundCode(x64) != int32(math.Round(x64)) {
			checkRoundForms(t, v, 4)
		}
	}
}

// specialInputs are the values outside the plain [0, 1] grid interior that
// the activation sites must treat exactly as before: NaN, infinities,
// signed zero, negatives, values above 1, the tiniest magnitudes and
// exact ties.
func specialInputs() []float32 {
	nan := float32(math.NaN())
	return []float32{
		nan, -nan, float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		-1e-30, -0.3, -5, -math.MaxFloat32,
		1, math.Nextafter32(1, 2), 1.5, 2, 7.5, 1e30, math.MaxFloat32,
		math.SmallestNonzeroFloat32, 0x1p-31, 0x1p-30, 0x1p-15,
		float32(1.0 / 30), 0.5 / 15, 0.5, 1.5 / 15, 14.5 / 15,
		math.Nextafter32(0.5/15, 0), math.Nextafter32(0.5/15, 1),
	}
}

// sameF32 reports whether got matches the oracle want: the same bits, or
// NaN where the oracle gave NaN.
func sameF32(got, want float32) bool {
	if want != want {
		return got != got
	}
	return math.Float32bits(got) == math.Float32bits(want)
}

// TestActivationSitesMatchMathRound feeds special and random values through
// QuantReLU.Forward, ActQuantizer.Forward, Requant.Code and FillActCodes
// and compares every output bit for bit with the math.Round oracle, so NaN
// stays NaN where it did.
func TestActivationSitesMatchMathRound(t *testing.T) {
	rng := tensor.NewRNG(19)
	vals := specialInputs()
	for i := 0; i < 4096; i++ {
		vals = append(vals, float32(rng.Float64()*3-1))
	}
	x := tensor.NewFrom(vals, len(vals))
	for _, bits := range []int{2, 4, 8, 16} {
		levels := float32(ActLevels(bits))
		for _, r := range []float32{0, 1, 2.5, 6} {
			q := &QuantReLU{Bits: bits, Range: r}
			for _, train := range []bool{false, true} {
				out := q.Forward(x, train)
				for i, v := range vals {
					if want := oracleQuantReLU(v, q.rng(), levels, false); !sameF32(out.Data[i], want) {
						t.Fatalf("QuantReLU bits %d range %v train %v: %v -> %v, want %v", bits, r, train, v, out.Data[i], want)
					}
				}
			}
			rq := NewRequant(bits, r)
			if bits <= 8 {
				for _, v := range vals {
					if got, want := rq.Code(v), oracleRequant(v, rq.Range, levels); got != want {
						t.Fatalf("Requant bits %d range %v: %v -> %d, want %d", bits, r, v, got, want)
					}
				}
			}
		}
		out := (&ActQuantizer{Bits: bits}).Forward(x)
		codes := make([]int32, len(vals))
		FillActCodes(codes, vals, bits)
		for i, v := range vals {
			if want := oracleQuantReLU(v, 1, levels, false); !sameF32(out.Data[i], want) {
				t.Fatalf("ActQuantizer bits %d: %v -> %v, want %v", bits, v, out.Data[i], want)
			}
			if want := oracleActCode(v, float64(levels)); codes[i] != want {
				t.Fatalf("FillActCodes bits %d: %v -> %d, want %d", bits, v, codes[i], want)
			}
		}
	}
	if got := (&QuantReLU{Bits: 4}).Forward(tensor.NewFrom([]float32{float32(math.NaN())}, 1), false).Data[0]; got == got {
		t.Fatalf("QuantReLU turned NaN into %v; NaN must survive for the training rollback", got)
	}
}

// TestQuantReLUParallelMatchesSerial checks that QuantReLU.Forward, which
// runs in chunks on the shared pool in train and eval mode, equals a
// serial loop of the oracle bit for bit, grid-snapped and relaxed. The
// shapes are nn's tail-test shapes: on a pool of two or more workers the
// split ones split, at batch 1 into chunks of different length whose
// boundary falls mid-plane.
func TestQuantReLUParallelMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(23)
	for _, tc := range []struct {
		shape []int
		split bool
	}{{[]int{1, 11, 37, 41}, true}, {[]int{16, 11, 37, 41}, true}, {[]int{16, 3, 5, 7}, false}} {
		shape := tc.shape
		x := tensor.New(shape...)
		if tc.split && x.Len() < 2*tensor.ElementwiseGrain {
			t.Fatalf("shape %v holds %d elements, too few to split at grain %d", shape, x.Len(), tensor.ElementwiseGrain)
		}
		rng.FillUniform(x, -1, 4)
		for _, relaxed := range []bool{false, true} {
			q := &QuantReLU{Bits: 4, Range: 2.5, Relaxed: relaxed}
			for _, train := range []bool{false, true} {
				out := q.Forward(x, train)
				for i, v := range x.Data {
					want := oracleQuantReLU(v, q.Range, float32(ActLevels(q.Bits)), relaxed)
					if math.Float32bits(out.Data[i]) != math.Float32bits(want) {
						t.Fatalf("shape %v relaxed %v train %v: element %d is %v, want %v", shape, relaxed, train, i, out.Data[i], want)
					}
				}
				if train && q.inX != x {
					t.Fatal("train-mode forward did not cache its input for Backward")
				}
			}
		}
	}
}
