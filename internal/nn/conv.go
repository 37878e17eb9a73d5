package nn

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// FakeQuant is a straight-through fake quantizer used for quantization-
// aware training: Forward maps a float tensor onto its quantized grid,
// Backward implements the straight-through gradient (possibly masked by
// the clamping range).
type FakeQuant interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad, x *tensor.Tensor) *tensor.Tensor
}

// ConvExecutor overrides the inference-time convolution arithmetic of a
// Conv2D. Quantization schemes (static INT-k, DRQ, ODQ) implement this to
// run integer arithmetic while leaving the network structure untouched.
// The executor receives the float input (post any previous layer) and the
// layer itself, and must return the float-domain output (pre-bias; the
// layer adds its bias afterwards).
type ConvExecutor interface {
	Conv(x *tensor.Tensor, layer *Conv2D) *tensor.Tensor
}

// Conv2D is a 2-D convolution with optional bias and optional fake
// quantization of weights and input activations (DoReFa-style QAT).
type Conv2D struct {
	Name           string
	InC, OutC      int
	K, Stride, Pad int
	Weight         *Param // [OutC, InC, K, K]
	Bias           *Param // [OutC] or nil
	WeightQuant    FakeQuant
	ActQuant       FakeQuant
	Exec           ConvExecutor // nil → default float path
	// DisableActQuant skips activation fake-quant; used for the first
	// layer which consumes raw images (standard DoReFa practice).
	DisableActQuant bool
	// QuantRelaxed temporarily bypasses the fake quantizers (float
	// warm-up phase of quantization-aware training).
	QuantRelaxed bool
	// TrainExec, when set, substitutes the executor's output for the
	// forward value during training while gradients flow through the
	// standard (fake-quantized) convolution — a straight-through
	// estimator. This is how threshold-aware retraining (ODQ §3) teaches
	// the network to tolerate predictor-only insensitive outputs.
	TrainExec ConvExecutor

	// Cached forward state for backward.
	inX   *tensor.Tensor // pre-quantization input
	qX    *tensor.Tensor // post-activation-quant input actually convolved
	qW    *tensor.Tensor // post-weight-quant weights actually convolved
	geomN tensor.ConvGeom
}

// NewConv2D builds a convolution layer. bias toggles the additive bias.
func NewConv2D(name string, inC, outC, k, stride, pad int, bias bool, rng *tensor.RNG) *Conv2D {
	w := tensor.New(outC, inC, k, k)
	rng.KaimingConv(w)
	c := &Conv2D{
		Name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: NewParam(name+".weight", w, true),
	}
	if bias {
		c.Bias = NewParam(name+".bias", tensor.New(outC), false)
	}
	return c
}

// Geom returns the convolution geometry for an input of h×w.
func (c *Conv2D) Geom(h, w int) tensor.ConvGeom {
	return tensor.Geometry(c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad)
}

// EffectiveWeight returns the weights the layer actually convolves with:
// fake-quantized if a WeightQuant is installed (and not relaxed), raw
// otherwise.
func (c *Conv2D) EffectiveWeight() *tensor.Tensor {
	if c.WeightQuant != nil && !c.QuantRelaxed {
		return c.WeightQuant.Forward(c.Weight.W)
	}
	return c.Weight.W
}

// Forward implements Module.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	sp := telemetry.StartSpan("nn.conv.forward")
	defer sp.End()
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", c.Name, x.Shape))
	}
	if x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", c.Name, c.InC, x.Shape[1]))
	}
	if c.Exec != nil && !train {
		out := c.Exec.Conv(x, c)
		c.addBias(out)
		return out
	}
	qx := x
	if c.ActQuant != nil && !c.DisableActQuant && !c.QuantRelaxed {
		qx = c.ActQuant.Forward(x)
	}
	qw := c.EffectiveWeight()

	n := x.Shape[0]
	g := c.Geom(x.Shape[2], x.Shape[3])
	out := tensor.New(n, g.OutC, g.OutH, g.OutW)
	cols := g.ColCols()
	if train {
		c.inX = x
		c.qX = qx
		c.qW = qw
		c.geomN = g
	}
	per := c.InC * g.InH * g.InW
	// The bias rides along as a GEMM epilogue (row initialization) unless
	// a TrainExec will replace this output, in which case the bias must be
	// added to the substituted value instead.
	var bias []float32
	if c.Bias != nil && !(train && c.TrainExec != nil) {
		bias = c.Bias.W.Data
	}
	// Samples are independent: fan the per-sample implicit GEMM out on
	// the shared worker pool. It packs its panels straight from the
	// sample's input, so no im2col matrix is built, and Backward
	// re-reads the cached qX instead of keeping one.
	tensor.DefaultPool().ParallelN(n, func(s int) {
		tensor.ConvGemm(qw.Data, qx.Data[s*per:(s+1)*per], g, out.Data[s*g.OutC*cols:(s+1)*g.OutC*cols], bias)
	})
	if train && c.TrainExec != nil {
		// Straight-through: forward the executor's value; the cached
		// state above keeps gradients flowing through the plain conv.
		out = c.TrainExec.Conv(x, c)
		c.addBias(out)
	}
	return out
}

func (c *Conv2D) addBias(out *tensor.Tensor) {
	if c.Bias == nil {
		return
	}
	n, oc := out.Shape[0], out.Shape[1]
	hw := out.Shape[2] * out.Shape[3]
	for s := 0; s < n; s++ {
		for o := 0; o < oc; o++ {
			b := c.Bias.W.Data[o]
			base := (s*oc + o) * hw
			for i := 0; i < hw; i++ {
				out.Data[base+i] += b
			}
		}
	}
}

// Backward implements Module. Straight-through estimation: gradients flow
// to the unquantized weights/activations through the fake quantizers.
//
// Samples run in parallel on the shared worker pool: each computes its
// weight-gradient contribution into pooled scratch (reduced serially in
// sample order afterwards, so results stay deterministic regardless of
// worker count) and scatters its input gradient into a disjoint slice of
// dX. No transpose or im2col buffer is built for dW: ConvGemmNT packs the
// transposed im2col panels straight from the cached input, and GemmTN
// absorbs Wᵀ in its packing pass. dX goes through a dCols matrix and
// Col2im, which adds into each input element in a fixed order.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	sp := telemetry.StartSpan("nn.conv.backward")
	defer sp.End()
	if c.qX == nil {
		panic("nn: Conv2D.Backward without cached forward")
	}
	g := c.geomN
	n := grad.Shape[0]
	rows, cols := g.ColRows(), g.ColCols()
	dX := tensor.New(c.inX.Shape...)
	per := c.InC * g.InH * g.InW

	if c.Bias != nil {
		hw := g.OutH * g.OutW
		for s := 0; s < n; s++ {
			for o := 0; o < g.OutC; o++ {
				var sum float32
				base := (s*g.OutC + o) * hw
				for i := 0; i < hw; i++ {
					sum += grad.Data[base+i]
				}
				c.Bias.Grad.Data[o] += sum
			}
		}
	}

	dWs := make([][]float32, n)
	tensor.DefaultPool().ParallelN(n, func(s int) {
		gs := grad.Data[s*g.OutC*cols : (s+1)*g.OutC*cols]
		// dW_s = gs · im2col(qX_s)ᵀ  (OutC×cols · cols×rows).
		dw := tensor.GetFloat32(g.OutC * rows)
		for i := range dw {
			dw[i] = 0
		}
		tensor.ConvGemmNT(gs, c.qX.Data[s*per:(s+1)*per], g, dw)
		dWs[s] = dw
		// dCols = Wᵀ · gs  (rows×OutC · OutC×cols), transpose absorbed by
		// GemmTN packing.
		dCols := tensor.GetFloat32(rows * cols)
		for i := range dCols {
			dCols[i] = 0
		}
		tensor.GemmTN(c.qW.Data, gs, dCols, rows, g.OutC, cols)
		tensor.Col2im(dCols, g, dX.Data[s*per:(s+1)*per])
		tensor.PutFloat32(dCols)
	})
	wg := c.Weight.Grad.Data[:g.OutC*rows]
	for s := 0; s < n; s++ {
		dw := dWs[s]
		for i := range wg {
			wg[i] += dw[i]
		}
		tensor.PutFloat32(dw)
	}

	if c.ActQuant != nil && !c.DisableActQuant && !c.QuantRelaxed {
		dX = c.ActQuant.Backward(dX, c.inX)
	}
	c.inX, c.qX, c.qW = nil, nil, nil
	return dX
}

// Params implements Module.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// Visit implements Module.
func (c *Conv2D) Visit(f func(Module)) { f(c) }
