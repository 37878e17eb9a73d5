package tensor

import (
	"math"
	"testing"
)

// TestPackedI4RoundTrip checks pack/At/unpack round-trips for even and
// odd element counts (tail nibble), and UnpackIntInto over every range,
// including ranges that start in a high nibble.
func TestPackedI4RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 25} {
		codes := make([]uint8, n)
		for i := range codes {
			codes[i] = uint8((i*7 + 3) % 16)
		}
		p := PackI4(codes, n)
		if p.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, p.Len())
		}
		for i := range codes {
			if p.At(i) != codes[i] {
				t.Fatalf("n=%d: At(%d)=%d want %d", n, i, p.At(i), codes[i])
			}
		}
		for first := 0; first <= n; first++ {
			for end := first; end <= n; end++ {
				dst := make([]int32, end-first)
				p.UnpackIntInto(dst, first)
				for i, c := range dst {
					if c != int32(codes[first+i]) {
						t.Fatalf("n=%d: UnpackIntInto [%d,%d) element %d = %d want %d", n, first, end, i, c, codes[first+i])
					}
				}
			}
		}
	}
}

// TestPackedI4DequantizeMatchesGrid checks that Dequantize lands exactly
// on the float32 grid k/15 that QuantReLU emits, for every code.
func TestPackedI4DequantizeMatchesGrid(t *testing.T) {
	codes := make([]uint8, 16)
	for i := range codes {
		codes[i] = uint8(i)
	}
	f := PackI4(codes, 16).Dequantize()
	for k := 0; k < 16; k++ {
		want := float32(math.Round(float64(float32(k)/15*15))) / 15 // QuantReLU composition on an on-grid value
		if f.Data[k] != want {
			t.Fatalf("code %d: dequant %v want %v", k, f.Data[k], want)
		}
		if f.Data[k] != float32(k)/15 {
			t.Fatalf("code %d: dequant %v want %v", k, f.Data[k], float32(k)/15)
		}
	}
}

// TestMaxPoolPackedI4MatchesFloat checks packed pooling against the float
// MaxPool2D reference over odd spatial sizes.
func TestMaxPoolPackedI4MatchesFloat(t *testing.T) {
	rng := NewRNG(21)
	const n, c, h, w = 2, 3, 7, 7
	codes := make([]uint8, n*c*h*w)
	for i := range codes {
		codes[i] = uint8(rng.Intn(16))
	}
	p := PackI4(codes, n, c, h, w)
	got := MaxPoolPackedI4(p, 2, 2)

	// Float reference on the dequantized grid.
	f := p.Dequantize()
	oh, ow := (h-2)/2+1, (w-2)/2+1
	if got.Shape[2] != oh || got.Shape[3] != ow {
		t.Fatalf("shape %v want [..,%d,%d]", got.Shape, oh, ow)
	}
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					best := float32(-1)
					for ky := 0; ky < 2; ky++ {
						for kx := 0; kx < 2; kx++ {
							v := f.At4(s, ch, y*2+ky, x*2+kx)
							if v > best {
								best = v
							}
						}
					}
					oi := ((s*c+ch)*oh+y)*ow + x
					if gv := float32(got.At(oi)) / 15; gv != best {
						t.Fatalf("pool mismatch at %d: %v want %v", oi, gv, best)
					}
				}
			}
		}
	}
}
