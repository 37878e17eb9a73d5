package quant

import (
	"math"

	"repro/internal/tensor"
)

// WeightCodesPerChannel quantizes conv weights [O, C, K, K] with one
// symmetric σ-clipped scale per output channel instead of one per tensor.
// Per-channel scales remove the cross-channel dynamic-range coupling that
// per-tensor scales suffer from (one outlier filter coarsens everyone's
// grid); they are the main knob production INT8/INT4 deployments turn.
// The returned scales align with the output-channel axis; the IntTensor's
// own Scale field is set to 1 and must not be used for dequantization.
func WeightCodesPerChannel(w *tensor.Tensor, bits int) (*tensor.IntTensor, []float32) {
	if w.Rank() != 4 {
		panic("quant: WeightCodesPerChannel requires [O,C,K,K] weights")
	}
	outC := w.Shape[0]
	per := w.Len() / outC
	levels := WeightLevels(bits)
	out := tensor.NewInt(bits, 1, w.Shape...)
	scales := make([]float32, outC)
	for o := 0; o < outC; o++ {
		ch := w.Data[o*per : (o+1)*per]
		chT := tensor.NewFrom(ch, per)
		scale := weightScale(chT, bits)
		if scale == 0 {
			scales[o] = 1
			continue
		}
		scales[o] = scale
		for i, v := range ch {
			c := int32(math.Round(float64(v / scale)))
			if c > levels {
				c = levels
			} else if c < -levels {
				c = -levels
			}
			out.Data[o*per+i] = c
		}
	}
	return out, scales
}

// DequantAccumPerChannel converts raw conv accumulators into floats using
// the activation scale and per-output-channel weight scales.
func DequantAccumPerChannel(acc []int64, actScale float32, wScales []float32, n int, g tensor.ConvGeom) *tensor.Tensor {
	out := tensor.New(n, g.OutC, g.OutH, g.OutW)
	cols := g.OutH * g.OutW
	for s := 0; s < n; s++ {
		for o := 0; o < g.OutC; o++ {
			scale := actScale * wScales[o]
			base := (s*g.OutC + o) * cols
			for i := 0; i < cols; i++ {
				out.Data[base+i] = float32(acc[base+i]) * scale
			}
		}
	}
	return out
}
