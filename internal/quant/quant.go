// Package quant implements the quantization primitives shared by every
// scheme in this reproduction: DoReFa-style fake quantizers for
// quantization-aware training, integer code extraction with per-tensor
// scales, the high/low bit split at the heart of ODQ (Eq. 3 of the paper),
// and static INT-k integer inference executors (the DoReFa-Net INT16/INT8
// baselines of the evaluation).
package quant

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ActLevels returns the number of positive quantization levels for an
// unsigned k-bit activation code (2^k − 1).
func ActLevels(bits int) int32 { return int32(1<<uint(bits)) - 1 }

// WeightLevels returns the maximum magnitude of a signed symmetric k-bit
// weight code (2^(k−1) − 1).
func WeightLevels(bits int) int32 { return int32(1<<uint(bits-1)) - 1 }

// roundCode rounds x, a grid value already clamped to [0, levels] for a
// code of at most 16 bits, to the nearest integer with ties away from
// zero, exactly as math.Round does, by adding 0.5 and truncating. Every
// caller passes an x with at most 40 significant bits: the float32
// product float64(v*levels), or the exact float64 product
// float64(v)*levels of a float32 v. For x ≥ 0.5 the sum then fits in 41
// bits, so it is exact and truncates to floor(x+0.5) = math.Round(x). For
// x < 0.5 the sum stays below 1 even where it rounds, so it truncates to
// 0. Exact ties such as float32(1/30)*15 == 0.5 do occur, so
// math.RoundToEven is no substitute. NaN converts to an
// implementation-defined integer; callers that must keep NaN check first.
func roundCode(x float64) int32 { return int32(x + 0.5) }

// snap clamps v to [0, 1] and maps it to the nearest point k/levels of
// the k-bit grid, bit for bit equal to rounding with math.Round (the
// oracle of TestActivationSitesMatchMathRound). NaN and −0 pass through
// unchanged, as math.Round leaves them, where roundCode would not;
// training's NaN rollback relies on NaN surviving the activation.
func snap(v, levels float32) float32 {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	} else if v != v || math.Float32bits(v) == 1<<31 {
		return v
	}
	return float32(roundCode(float64(v*levels))) / levels
}

// ActQuantizer fake-quantizes activations DoReFa style: clamp to [0,1],
// then snap to the uniform unsigned k-bit grid. Backward is the straight-
// through estimator masked to the clamp range.
type ActQuantizer struct {
	Bits int
}

// Forward implements nn.FakeQuant.
func (q *ActQuantizer) Forward(x *tensor.Tensor) *tensor.Tensor {
	levels := float32(ActLevels(q.Bits))
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = snap(v, levels)
	}
	return out
}

// Backward implements nn.FakeQuant (STE with clip-range mask).
func (q *ActQuantizer) Backward(grad, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(grad.Shape...)
	for i, v := range x.Data {
		if v >= 0 && v <= 1 {
			out.Data[i] = grad.Data[i]
		}
	}
	return out
}

// WeightClipSigma bounds the symmetric weight-quantization range at this
// many standard deviations (when below the max-abs value). Like DoReFa's
// tanh normalization, clipping the Gaussian tails spreads the integer
// codes across the full range — without it almost no weight reaches the
// high-order code bits and ODQ's 2-bit sensitivity predictor goes blind.
const WeightClipSigma = 2.0

// weightScale returns the shared quantization step for a weight tensor:
// symmetric, σ-clipped at low bit widths (≤4, where spreading the codes
// matters and quantization-aware training absorbs the clipping), plain
// max-abs at higher widths (where requantizing an already-trained tensor
// must stay lossless).
func weightScale(w *tensor.Tensor, bits int) float32 {
	levels := float32(WeightLevels(bits))
	mx := w.AbsMax()
	if mx == 0 {
		return 0
	}
	if bits > 4 {
		return mx / levels
	}
	var sum, sq float64
	for _, v := range w.Data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(w.Len())
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	bound := float32(WeightClipSigma * sd)
	if bound == 0 || bound > mx {
		bound = mx
	}
	return bound / levels
}

// WeightQuantizer fake-quantizes weights with a symmetric σ-clipped k-bit
// grid. Backward is a pure straight-through estimator.
type WeightQuantizer struct {
	Bits int
}

// Forward implements nn.FakeQuant.
func (q *WeightQuantizer) Forward(w *tensor.Tensor) *tensor.Tensor {
	levels := float32(WeightLevels(q.Bits))
	out := tensor.New(w.Shape...)
	scale := weightScale(w, q.Bits)
	if scale == 0 {
		return out
	}
	for i, v := range w.Data {
		c := float32(math.Round(float64(v / scale)))
		if c > levels {
			c = levels
		} else if c < -levels {
			c = -levels
		}
		out.Data[i] = c * scale
	}
	return out
}

// Backward implements nn.FakeQuant (pass-through STE).
func (q *WeightQuantizer) Backward(grad, _ *tensor.Tensor) *tensor.Tensor {
	return grad.Clone()
}

// Compile-time interface checks.
var (
	_ nn.FakeQuant = (*ActQuantizer)(nil)
	_ nn.FakeQuant = (*WeightQuantizer)(nil)
)

// QuantReLU is the clipped, quantized activation layer that replaces ReLU
// in quantization-aware training (where DoReFa clips activations to [0,1]).
// At inference its output lies exactly on the unsigned k-bit grid, so
// downstream integer executors recover codes losslessly.
type QuantReLU struct {
	Name string
	Bits int
	// Range is the clipping range in input units (PACT-style α): the
	// layer computes quantize(clamp(x/Range, 0, 1)), so its *output*
	// always lies on the [0,1] k-bit grid regardless of Range and the
	// integer executors need no per-layer range plumbing. A Range wider
	// than 1 keeps gradients alive through deep stacks (a hard [0,1]
	// clip saturates ~2/3 of a unit-normal pre-activation and deep
	// ResNets stop training). Zero means 1.
	Range float32
	// Relaxed keeps the clipping but skips the discretization — the
	// warm-up phase of quantization-aware training. Training first with
	// the clip and only then with the grid makes the QAT transition
	// mild (deep networks fail to train when both land at once).
	Relaxed bool

	inX *tensor.Tensor
}

// NewQuantReLU builds the quantized activation layer.
func NewQuantReLU(name string, bits int) *QuantReLU {
	return &QuantReLU{Name: name, Bits: bits}
}

func (q *QuantReLU) rng() float32 {
	if q.Range <= 0 {
		return 1
	}
	return q.Range
}

// Forward implements nn.Module. The elementwise pass runs in contiguous
// chunks on the shared pool.
func (q *QuantReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		q.inX = x
	}
	r, relaxed := q.rng(), q.Relaxed
	out := tensor.New(x.Shape...)
	levels := float32(ActLevels(q.Bits))
	tensor.DefaultPool().ParallelRange(len(x.Data), tensor.ElementwiseGrain, func(lo, hi int) {
		dst := out.Data[lo:hi]
		for i, v := range x.Data[lo:hi] {
			v /= r
			if !relaxed {
				v = snap(v, levels)
			} else if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			dst[i] = v
		}
	})
	return out
}

// Backward implements nn.Module: clipped-range straight-through gradient
// (both modes).
func (q *QuantReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if q.inX == nil {
		panic("quant: QuantReLU.Backward without cached forward")
	}
	defer func() { q.inX = nil }()
	r := q.rng()
	dx := tensor.New(grad.Shape...)
	for i, v := range q.inX.Data {
		if v >= 0 && v <= r {
			dx.Data[i] = grad.Data[i] / r
		}
	}
	return dx
}

// Params implements nn.Module.
func (q *QuantReLU) Params() []*nn.Param { return nil }

// Visit implements nn.Module.
func (q *QuantReLU) Visit(f func(nn.Module)) { f(q) }

// ActCodes quantizes a float activation tensor to unsigned k-bit integer
// codes (clamping to [0,1] first, per the DoReFa convention).
func ActCodes(x *tensor.Tensor, bits int) *tensor.IntTensor {
	out := tensor.NewInt(bits, 1/float32(ActLevels(bits)), x.Shape...)
	FillActCodes(out.Data, x.Data, bits)
	return out
}

// FillActCodes is ActCodes' loop over plain slices: dst[i] is the k-bit
// code of src[i] (len(dst) >= len(src)). The ODQ executor calls it on one
// sample's activations inside that sample's task.
func FillActCodes(dst []int32, src []float32, bits int) {
	fl := float64(ActLevels(bits))
	dst = dst[:len(src)]
	for i, v := range src {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		dst[i] = roundCode(float64(v) * fl)
	}
}

// intOver returns an IntTensor header over the first NumElems(shape)
// elements of data.
func intOver(data []int32, bits int, scale float32, shape []int) *tensor.IntTensor {
	return &tensor.IntTensor{
		Shape: append([]int(nil), shape...),
		Data:  data[:tensor.NumElems(shape)],
		Scale: scale,
		Bits:  bits,
	}
}

// WeightCodes quantizes a float weight tensor to signed symmetric k-bit
// integer codes with the shared σ-clipped per-tensor scale (identical to
// the grid WeightQuantizer trains against).
func WeightCodes(w *tensor.Tensor, bits int) *tensor.IntTensor {
	levels := WeightLevels(bits)
	scale := weightScale(w, bits)
	if scale == 0 {
		return tensor.NewInt(bits, 1, w.Shape...)
	}
	out := tensor.NewInt(bits, scale, w.Shape...)
	for i, v := range w.Data {
		c := int32(math.Round(float64(v / scale)))
		if c > levels {
			c = levels
		} else if c < -levels {
			c = -levels
		}
		out.Data[i] = c
	}
	return out
}

// SplitCodesRounded splits codes with *round-to-nearest* high parts:
// hi = clamp(round(c / 2^n)), lo = c − hi·2^n. Compared with truncation
// this shrinks the predictor's dead zone to |c| ≤ 2^(n−1)−1 (nearly every
// operand contributes its sign and coarse magnitude to the high bits,
// like DoReFa's zero-free grid) and keeps the residual zero-centered
// (|lo| ≤ 2^n − 1). This is the split the ODQ predictor uses. With
// h = bits − n, a signed hi clamps to the h-bit two's-complement range
// [−2^(h−1), 2^(h−1)−1] ([−2, 1] at the paper's 4/2 split); an unsigned
// hi clamps to [0, 2^h−1].
func SplitCodesRounded(t *tensor.IntTensor, lowBits int, signed bool) (hi, lo *tensor.IntTensor) {
	return SplitCodesRoundedInto(make([]int32, len(t.Data)), make([]int32, len(t.Data)), t, lowBits, signed)
}

// SplitCodesRoundedInto is SplitCodesRounded writing the high and low
// parts into hiDst and loDst (each len >= t.Len(), typically pooled
// scratch); the returned tensors' Data alias them.
func SplitCodesRoundedInto(hiDst, loDst []int32, t *tensor.IntTensor, lowBits int, signed bool) (hi, lo *tensor.IntTensor) {
	hi = intOver(hiDst, t.Bits-lowBits, t.Scale*float32(int32(1)<<uint(lowBits)), t.Shape)
	lo = intOver(loDst, lowBits+1, t.Scale, t.Shape)
	SplitRoundedCodes(hi.Data, lo.Data, t.Data, t.Bits, lowBits, signed)
	return hi, lo
}

// SplitRoundedCodes is SplitCodesRoundedInto's loop over plain slices:
// it splits bits-wide codes into hi (bits−lowBits wide) and lo
// (lowBits+1 wide, signed). hi may alias codes, since each code is read
// before its high part is written. The ODQ executor calls it on one
// sample's codes inside that sample's task.
func SplitRoundedCodes(hi, lo, codes []int32, bits, lowBits int, signed bool) {
	n := uint(lowBits)
	hiBits := bits - lowBits
	var hiMin, hiMax int32
	if signed {
		hiMin = -(int32(1) << uint(hiBits-1))
		hiMax = int32(1)<<uint(hiBits-1) - 1
	} else {
		hiMin = 0
		hiMax = int32(1)<<uint(hiBits) - 1
	}
	half := int32(1) << (n - 1)
	step := int32(1) << n
	hi, lo = hi[:len(codes)], lo[:len(codes)]
	for i, c := range codes {
		var h int32
		if c >= 0 {
			h = (c + half) / step
		} else {
			h = -((-c + half) / step)
		}
		if h < hiMin {
			h = hiMin
		} else if h > hiMax {
			h = hiMax
		}
		hi[i] = h
		lo[i] = c - h*step
	}
}

// ConvAccum runs an integer convolution of quantized activations
// x [N,C,H,W] with quantized weights w [O,C,K,K], returning the raw int64
// accumulators laid out [N,O,OH,OW] together with the geometry. The real
// value of accumulator i is acc[i] * x.Scale * w.Scale.
func ConvAccum(x, w *tensor.IntTensor, stride, pad int) ([]int64, tensor.ConvGeom) {
	g := AccumGeometry(x, w, stride, pad)
	acc := make([]int64, x.Shape[0]*g.TotalOutputs())
	ConvAccumInto(acc, x, w, stride, pad)
	return acc, g
}

// AccumGeometry resolves the conv geometry for an (activation, weight)
// code pair, panicking on a channel mismatch.
func AccumGeometry(x, w *tensor.IntTensor, stride, pad int) tensor.ConvGeom {
	c, h, wd := x.Shape[1], x.Shape[2], x.Shape[3]
	outC, k := w.Shape[0], w.Shape[2]
	if w.Shape[1] != c {
		panic("quant: ConvAccum channel mismatch")
	}
	return tensor.Geometry(c, h, wd, outC, k, stride, pad)
}

// ConvAccumInto is ConvAccum writing into a caller-provided accumulator
// (len >= batch * TotalOutputs), so hot paths can reuse pooled scratch.
// Each sample runs one implicit int-GEMM (tensor.ConvGemmInt), which
// packs its panels straight from the codes, so steady-state calls
// allocate nothing.
func ConvAccumInto(acc []int64, x, w *tensor.IntTensor, stride, pad int) tensor.ConvGeom {
	g := AccumGeometry(x, w, stride, pad)
	n := x.Shape[0]
	cols := g.ColCols()
	if len(acc) < n*g.OutC*cols {
		panic("quant: ConvAccumInto accumulator too small")
	}
	per := g.InC * g.InH * g.InW
	// Samples are independent: fan them out on the shared worker pool.
	tensor.DefaultPool().ParallelN(n, func(s int) {
		tensor.ConvGemmInt(w.Data, x.Data[s*per:(s+1)*per], g, acc[s*g.OutC*cols:(s+1)*g.OutC*cols])
	})
	return g
}

// DequantAccum converts raw accumulators into a float tensor using the
// product of the two operand scales.
func DequantAccum(acc []int64, scale float32, n int, g tensor.ConvGeom) *tensor.Tensor {
	out := tensor.New(n, g.OutC, g.OutH, g.OutW)
	for i, a := range acc {
		out.Data[i] = float32(a) * scale
	}
	return out
}
