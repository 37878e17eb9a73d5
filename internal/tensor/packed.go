package tensor

import "fmt"

// i4Levels is the number of positive levels of the unsigned 4-bit
// activation grid (2^4 - 1). The real value of code c is
// float32(c) / i4Levels — exactly the grid quant.QuantReLU emits, so
// packing and unpacking round-trip the float activation bit-exactly.
const i4Levels = 15

// PackedI4 stores unsigned 4-bit activation codes two per byte: element i
// lives in the low nibble of Data[i/2] when i is even, the high nibble
// when odd. This is the inter-layer activation format of the
// quantized-domain pipeline — half the memory traffic of int32 codes and
// an eighth of float32 — handed directly from one conv executor's fused
// requantize epilogue to the next executor's input split.
type PackedI4 struct {
	Shape []int
	Data  []uint8
}

// NewPackedI4 allocates a zeroed packed tensor.
func NewPackedI4(shape ...int) *PackedI4 {
	n := NumElems(shape)
	return &PackedI4{Shape: append([]int(nil), shape...), Data: make([]uint8, (n+1)/2)}
}

// Len returns the number of logical codes.
func (p *PackedI4) Len() int { return NumElems(p.Shape) }

// At returns code i.
func (p *PackedI4) At(i int) uint8 {
	b := p.Data[i>>1]
	if i&1 == 1 {
		return b >> 4
	}
	return b & 0xf
}

// PackI4 packs per-element codes (each < 16) two per byte. The tail
// nibble of an odd-length tensor stays zero.
func PackI4(codes []uint8, shape ...int) *PackedI4 {
	n := NumElems(shape)
	if len(codes) < n {
		panic(fmt.Sprintf("tensor: PackI4 got %d codes, shape %v wants %d", len(codes), shape, n))
	}
	p := NewPackedI4(shape...)
	PackI4Into(codes[:n], p.Data)
	return p
}

// PackI4Into packs n codes into dst (len >= (n+1)/2). Codes must be < 16.
func PackI4Into(codes []uint8, dst []uint8) {
	n := len(codes)
	for i := 0; i+1 < n; i += 2 {
		dst[i>>1] = codes[i] | codes[i+1]<<4
	}
	if n&1 == 1 {
		dst[n>>1] = codes[n-1]
	}
}

// UnpackIntInto writes codes first .. first+len(dst)-1 into dst
// (caller-provided, typically pooled scratch). An odd first starts in a
// high nibble, so each sample of a packed batch unpacks on its own.
func (p *PackedI4) UnpackIntInto(dst []int32, first int) {
	if first < 0 || first+len(dst) > p.Len() {
		panic(fmt.Sprintf("tensor: UnpackIntInto codes [%d, %d) of %d", first, first+len(dst), p.Len()))
	}
	unpackNibbles(p.Data, first, dst)
}

func unpackNibbles(src []uint8, first int, dst []int32) {
	if first&1 == 1 && len(dst) > 0 {
		dst[0] = int32(src[first>>1] >> 4)
		dst = dst[1:]
		first++
	}
	src = src[first>>1:]
	n := len(dst)
	for i := 0; i+1 < n; i += 2 {
		b := src[i>>1]
		dst[i] = int32(b & 0xf)
		dst[i+1] = int32(b >> 4)
	}
	if n&1 == 1 {
		dst[n-1] = int32(src[n>>1] & 0xf)
	}
}

// Dequantize expands the codes back onto the float [0,1] activation grid:
// value i is float32(code)/15, the exact float32 quant.QuantReLU would
// have produced for the same code.
func (p *PackedI4) Dequantize() *Tensor {
	out := New(p.Shape...)
	n := len(out.Data)
	const levels = float32(i4Levels)
	for i := 0; i < n; i++ {
		out.Data[i] = float32(p.At(i)) / levels
	}
	return out
}

// MaxPoolPackedI4 max-pools an NCHW packed tensor with square window k and
// stride s entirely in the code domain. Codes are unsigned and the
// code→real map is strictly increasing, so the max code dequantizes to
// exactly the float MaxPool2D output — the pooling layer never forces the
// pipeline back into float32.
func MaxPoolPackedI4(in *PackedI4, k, s int) *PackedI4 {
	if len(in.Shape) != 4 {
		panic("tensor: MaxPoolPackedI4 requires NCHW input")
	}
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh := (h-k)/s + 1
	ow := (w-k)/s + 1
	out := NewPackedI4(n, c, oh, ow)
	oi := 0
	for sn := 0; sn < n; sn++ {
		for ch := 0; ch < c; ch++ {
			inBase := (sn*c + ch) * h * w
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var best uint8
					for ky := 0; ky < k; ky++ {
						rowBase := inBase + (y*s+ky)*w + x*s
						for kx := 0; kx < k; kx++ {
							if v := in.At(rowBase + kx); v > best {
								best = v
							}
						}
					}
					if oi&1 == 1 {
						out.Data[oi>>1] |= best << 4
					} else {
						out.Data[oi>>1] = best
					}
					oi++
				}
			}
		}
	}
	return out
}
