package quant

// Requant is the code-emitting form of QuantReLU's inference forward: it
// maps a float pre-activation straight to its unsigned k-bit code instead
// of the dequantized grid value. The fused conv epilogue uses it to keep
// activations in the packed integer domain between layers.
//
// Bit-identity with the float path: QuantReLU emits
// q = float32(round(float64(clamp(v/Range)*levels)))/levels and the next
// layer's ActCodes recovers round(float64(q)*float64(levels)). For every
// code k in [0, levels] the float32 value k/levels scales back to within
// ~k·2⁻²⁴ of k, so the round-trip recovers k exactly — Code(v) equals the
// code the float path would re-derive, for identical inputs v.
type Requant struct {
	// Range is the clipping range (QuantReLU.Range semantics; always > 0).
	Range  float32
	levels float32
}

// NewRequant builds a requantizer for unsigned k-bit codes with the given
// clipping range (<= 0 means 1, matching QuantReLU).
func NewRequant(bits int, rng float32) Requant {
	if rng <= 0 {
		rng = 1
	}
	return Requant{Range: rng, levels: float32(ActLevels(bits))}
}

// RequantOf derives the requantizer matching a QuantReLU layer. Returns
// false when the layer is relaxed (no discretization — nothing to fuse).
func RequantOf(q *QuantReLU) (Requant, bool) {
	if q.Relaxed {
		return Requant{}, false
	}
	return NewRequant(q.Bits, q.Range), true
}

// Code maps a pre-activation to its code with the exact float operation
// order of QuantReLU.Forward: divide by Range (float32), clamp to [0,1],
// multiply by levels (float32), round in float64.
func (rq Requant) Code(v float32) uint8 {
	v /= rq.Range
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return uint8(roundCode(float64(v * rq.levels)))
}

// Levels returns the positive level count of the code grid.
func (rq Requant) Levels() float32 { return rq.levels }
