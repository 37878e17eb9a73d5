package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm2D normalizes per channel over (N,H,W). Training mode uses batch
// statistics and updates running estimates; inference uses the running
// estimates (or folded parameters after FoldInto).
type BatchNorm2D struct {
	Name     string
	C        int
	Eps      float32
	Momentum float32

	Gamma *Param // [C]
	Beta  *Param // [C]

	RunningMean *tensor.Tensor // [C]
	RunningVar  *tensor.Tensor // [C]

	// Frozen makes training-mode forward normalize with the running
	// statistics (and stop updating them) — the standard fine-tuning
	// configuration, used during ODQ threshold-aware retraining where
	// batch statistics of approximated activations would drift.
	Frozen bool

	// DeferStats makes training-mode forward record the batch statistics
	// in LastMean/LastVar INSTEAD of folding them into the running
	// estimates. Group-synchronous data-parallel training sets this so
	// the per-batch EMA updates — the one piece of forward-pass state a
	// checkpoint carries — can be broadcast and replayed in global batch
	// order on every rank via ApplyStats, keeping running statistics
	// bit-identical across worker counts. Normalization itself always
	// uses the batch statistics, so the training trajectory is unchanged.
	DeferStats bool

	// LastMean/LastVar are the most recent deferred batch statistics
	// (valid only after a training forward with DeferStats set).
	LastMean []float32
	LastVar  []float32

	// Cached forward state.
	inX     *tensor.Tensor
	xHat    *tensor.Tensor
	batchMu []float32
	batchSD []float32 // sqrt(var+eps)
}

// NewBatchNorm2D builds a batch-norm layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	gamma := tensor.New(c)
	gamma.Fill(1)
	rv := tensor.New(c)
	rv.Fill(1)
	return &BatchNorm2D{
		Name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       NewParam(name+".gamma", gamma, false),
		Beta:        NewParam(name+".beta", tensor.New(c), false),
		RunningMean: tensor.New(c),
		RunningVar:  rv,
	}
}

// Forward implements Module.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != b.C {
		panic("nn: BatchNorm2D channel mismatch")
	}
	hw := h * w
	out := tensor.New(x.Shape...)

	if train && b.Frozen {
		// Fine-tuning mode: normalize with running statistics but keep
		// the backward cache so gamma/beta still learn.
		mu := make([]float32, c)
		sd := make([]float32, c)
		xHat := tensor.New(x.Shape...)
		for ch := 0; ch < c; ch++ {
			mu[ch] = b.RunningMean.Data[ch]
			sd[ch] = float32(math.Sqrt(float64(b.RunningVar.Data[ch]) + float64(b.Eps)))
			g, bt := b.Gamma.W.Data[ch], b.Beta.W.Data[ch]
			for s := 0; s < n; s++ {
				base := (s*c + ch) * hw
				for i := 0; i < hw; i++ {
					xh := (x.Data[base+i] - mu[ch]) / sd[ch]
					xHat.Data[base+i] = xh
					out.Data[base+i] = g*xh + bt
				}
			}
		}
		b.inX, b.xHat, b.batchMu, b.batchSD = x, xHat, mu, sd
		return out
	}

	if train {
		mu := make([]float32, c)
		sd := make([]float32, c)
		if b.DeferStats && len(b.LastMean) != c {
			b.LastMean = make([]float32, c)
			b.LastVar = make([]float32, c)
		}
		cnt := float64(n * hw)
		for ch := 0; ch < c; ch++ {
			var sum float64
			for s := 0; s < n; s++ {
				base := (s*c + ch) * hw
				for i := 0; i < hw; i++ {
					sum += float64(x.Data[base+i])
				}
			}
			m := sum / cnt
			var vr float64
			for s := 0; s < n; s++ {
				base := (s*c + ch) * hw
				for i := 0; i < hw; i++ {
					d := float64(x.Data[base+i]) - m
					vr += d * d
				}
			}
			vr /= cnt
			mu[ch] = float32(m)
			sd[ch] = float32(math.Sqrt(vr + float64(b.Eps)))
			if b.DeferStats {
				// Record the exact float32 values the EMA would have
				// consumed; ApplyStats replays the identical expression.
				b.LastMean[ch] = float32(m)
				b.LastVar[ch] = float32(vr)
			} else {
				b.RunningMean.Data[ch] = (1-b.Momentum)*b.RunningMean.Data[ch] + b.Momentum*float32(m)
				b.RunningVar.Data[ch] = (1-b.Momentum)*b.RunningVar.Data[ch] + b.Momentum*float32(vr)
			}
		}
		xHat := tensor.New(x.Shape...)
		for ch := 0; ch < c; ch++ {
			g, bt := b.Gamma.W.Data[ch], b.Beta.W.Data[ch]
			for s := 0; s < n; s++ {
				base := (s*c + ch) * hw
				for i := 0; i < hw; i++ {
					xh := (x.Data[base+i] - mu[ch]) / sd[ch]
					xHat.Data[base+i] = xh
					out.Data[base+i] = g*xh + bt
				}
			}
		}
		b.inX, b.xHat, b.batchMu, b.batchSD = x, xHat, mu, sd
		return out
	}

	// Inference: one per-channel affine, applied plane by plane in
	// contiguous runs of (sample, channel) planes on the shared pool.
	scale, shift := b.evalAffineInto(tensor.GetFloat32(c), tensor.GetFloat32(c))
	tensor.DefaultPool().ParallelRange(n*c, tensor.ElementwiseGrain/hw, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			sc, sh := scale[p%c], shift[p%c]
			dst := out.Data[p*hw : (p+1)*hw]
			for i, v := range x.Data[p*hw : (p+1)*hw] {
				dst[i] = v*sc + sh
			}
		}
	})
	tensor.PutFloat32(scale)
	tensor.PutFloat32(shift)
	return out
}

// Backward implements Module (standard batch-norm gradient).
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.xHat == nil {
		panic("nn: BatchNorm2D.Backward without cached forward")
	}
	n, c := grad.Shape[0], grad.Shape[1]
	hw := grad.Shape[2] * grad.Shape[3]
	m := float32(n * hw)
	dX := tensor.New(grad.Shape...)
	for ch := 0; ch < c; ch++ {
		var dGamma, dBeta float64
		for s := 0; s < n; s++ {
			base := (s*c + ch) * hw
			for i := 0; i < hw; i++ {
				dGamma += float64(grad.Data[base+i] * b.xHat.Data[base+i])
				dBeta += float64(grad.Data[base+i])
			}
		}
		b.Gamma.Grad.Data[ch] += float32(dGamma)
		b.Beta.Grad.Data[ch] += float32(dBeta)

		g := b.Gamma.W.Data[ch]
		invSD := 1 / b.batchSD[ch]
		if b.Frozen {
			// Running statistics are constants: the gradient is a
			// plain per-channel affine backprop.
			for s := 0; s < n; s++ {
				base := (s*c + ch) * hw
				for i := 0; i < hw; i++ {
					dX.Data[base+i] = g * invSD * grad.Data[base+i]
				}
			}
			continue
		}
		sumDy := float32(dBeta)
		sumDyXhat := float32(dGamma)
		for s := 0; s < n; s++ {
			base := (s*c + ch) * hw
			for i := 0; i < hw; i++ {
				dy := grad.Data[base+i]
				xh := b.xHat.Data[base+i]
				dX.Data[base+i] = g * invSD * (dy - sumDy/m - xh*sumDyXhat/m)
			}
		}
	}
	b.xHat = nil
	return dX
}

// Params implements Module.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Visit implements Module.
func (b *BatchNorm2D) Visit(f func(Module)) { f(b) }

// ApplyStats folds one batch's deferred statistics into the running
// estimates with the exact float expression the inline EMA uses, so
// replaying deferred batches in their global order produces running
// statistics bit-identical to a sequential single-worker run.
func (b *BatchNorm2D) ApplyStats(mean, variance []float32) {
	if len(mean) != b.C || len(variance) != b.C {
		panic("nn: ApplyStats channel mismatch")
	}
	for ch := 0; ch < b.C; ch++ {
		b.RunningMean.Data[ch] = (1-b.Momentum)*b.RunningMean.Data[ch] + b.Momentum*mean[ch]
		b.RunningVar.Data[ch] = (1-b.Momentum)*b.RunningVar.Data[ch] + b.Momentum*variance[ch]
	}
}

// EvalAffine returns the per-channel affine (scale, shift) the inference
// forward applies: out = x*scale + shift with scale = gamma/sqrt(var+eps)
// and shift = beta - mean*scale. The eval branch of Forward takes its
// affine from the same code, so fused conv epilogues that use this apply
// batch-norm in the quantized domain bit-identically to the float path.
func (b *BatchNorm2D) EvalAffine() (scale, shift []float32) {
	return b.evalAffineInto(make([]float32, b.C), make([]float32, b.C))
}

// evalAffineInto is EvalAffine writing into caller-provided slices of
// length C.
func (b *BatchNorm2D) evalAffineInto(scale, shift []float32) ([]float32, []float32) {
	for ch := 0; ch < b.C; ch++ {
		sd := float32(math.Sqrt(float64(b.RunningVar.Data[ch]) + float64(b.Eps)))
		sc := b.Gamma.W.Data[ch] / sd
		scale[ch] = sc
		shift[ch] = b.Beta.W.Data[ch] - b.RunningMean.Data[ch]*sc
	}
	return scale, shift
}

// FoldInto folds this batch-norm's inference transform into the preceding
// convolution, so quantized executors see a single conv with adjusted
// weights and bias. After folding the BN becomes an identity (gamma=1,
// beta=0, running stats reset).
func (b *BatchNorm2D) FoldInto(conv *Conv2D) {
	if conv.OutC != b.C {
		panic("nn: FoldInto channel mismatch")
	}
	if conv.Bias == nil {
		conv.Bias = NewParam(conv.Name+".bias", tensor.New(conv.OutC), false)
	}
	per := conv.InC * conv.K * conv.K
	for o := 0; o < b.C; o++ {
		sd := float32(math.Sqrt(float64(b.RunningVar.Data[o]) + float64(b.Eps)))
		scale := b.Gamma.W.Data[o] / sd
		base := o * per
		for i := 0; i < per; i++ {
			conv.Weight.W.Data[base+i] *= scale
		}
		conv.Bias.W.Data[o] = (conv.Bias.W.Data[o]-b.RunningMean.Data[o])*scale + b.Beta.W.Data[o]
	}
	b.Gamma.W.Fill(1)
	b.Beta.W.Fill(0)
	b.RunningMean.Fill(0)
	b.RunningVar.Fill(1)
	b.Eps = 0
}
