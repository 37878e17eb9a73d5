package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Epilogue describes the layer tail — bias add, batch-norm affine, and
// quantizing activation — fused into the executor so the conv's outputs
// are requantized to packed INT4 codes in-register instead of being
// materialized as float32, dequantized, and re-coded by the next layer.
// The operations are applied in the exact float order of the unfused
// modules (Conv2D bias add, BatchNorm2D eval affine, QuantReLU), so the
// emitted codes are bit-identical to what the float path's next-layer
// ActCodes would recover.
type Epilogue struct {
	// Conv supplies the bias (nil Bias means no bias add).
	Conv *nn.Conv2D
	// BN, when non-nil, contributes the eval-mode per-channel affine. Its
	// parameters are re-read on every conv call, so hot-reloaded weights
	// are picked up without rebuilding the epilogue.
	BN *nn.BatchNorm2D
	// Act requantizes the post-affine value to an unsigned code.
	Act quant.Requant
}

// epiEval is the per-call evaluated form of an Epilogue: bias and affine
// snapshots taken at conv time (hot-reload safety), applied per output as
// code(v, oc).
type epiEval struct {
	bias         []float32
	scale, shift []float32
	act          quant.Requant
}

func (ep *Epilogue) eval() *epiEval {
	if lv := ep.Act.Levels(); lv <= 0 || lv > 15 {
		panic(fmt.Sprintf("core: epilogue activation levels %v do not fit a packed nibble", lv))
	}
	ev := &epiEval{act: ep.Act}
	if ep.Conv != nil && ep.Conv.Bias != nil {
		ev.bias = ep.Conv.Bias.W.Data
	}
	if ep.BN != nil {
		ev.scale, ev.shift = ep.BN.EvalAffine()
	}
	return ev
}

// code applies the fused tail to one output value of channel oc. Each step
// uses the same float32 expression as the module it replaces, so the
// result is bit-identical to running the unfused module chain.
func (ev *epiEval) code(v float32, oc int) uint8 {
	if ev.bias != nil {
		v += ev.bias[oc]
	}
	if ev.scale != nil {
		v = v*ev.scale[oc] + ev.shift[oc]
	}
	return ev.act.Code(v)
}

// ConvPacked runs the ODQ convolution directly on packed INT4 activation
// codes — the inter-layer format of the quantized-domain pipeline — and
// returns the next layer's packed codes via the fused epilogue. The input
// codes are interpreted on the unsigned 4-bit activation grid (scale
// 1/15), exactly what quant.ActCodes would produce from the dequantized
// tensor, so the result is bit-identical to the float round-trip.
func (e *Exec) ConvPacked(px *tensor.PackedI4, layer *nn.Conv2D, epi *Epilogue) *tensor.PackedI4 {
	if e.bits != 4 {
		panic(fmt.Sprintf("core: ConvPacked requires a 4-bit executor, have %d", e.bits))
	}
	if epi == nil {
		panic("core: ConvPacked requires an epilogue")
	}
	_, out := e.convQ(actInput{shape: px.Shape, px: px}, layer, epi)
	return out
}

// ConvFused runs the ODQ convolution on a float input but emits packed
// INT4 codes through the fused epilogue — the entry layer of the
// quantized-domain pipeline (and any layer whose predecessor could not
// stay packed).
func (e *Exec) ConvFused(x *tensor.Tensor, layer *nn.Conv2D, epi *Epilogue) *tensor.PackedI4 {
	if epi == nil {
		panic("core: ConvFused requires an epilogue")
	}
	_, out := e.convQ(actInput{shape: x.Shape, x: x}, layer, epi)
	return out
}
