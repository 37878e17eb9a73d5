// Package nn implements the neural-network layers, composite modules and
// backpropagation used as the substrate for the ODQ reproduction. Modules
// operate on NCHW float32 tensors; quantized inference is layered on top by
// installing ConvExecutor implementations on Conv2D layers.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	// Decay marks whether weight decay applies (biases and BN affine
	// parameters conventionally opt out).
	Decay bool
}

// NewParam allocates a parameter plus matching gradient buffer.
func NewParam(name string, w *tensor.Tensor, decay bool) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape...), Decay: decay}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Module is a node of the network graph. Forward must cache whatever state
// Backward needs; Backward receives dL/d(output) and returns dL/d(input).
type Module interface {
	// Forward runs the module. train toggles behaviours such as
	// batch-norm statistics updates and backward-state caching.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient to the input gradient,
	// accumulating parameter gradients along the way. Must follow a
	// Forward with train=true.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns all trainable parameters in the subtree.
	Params() []*Param
	// Visit walks the subtree depth-first, calling f on every module
	// (including composites and self).
	Visit(f func(Module))
}

// Sequential chains modules output-to-input.
type Sequential struct {
	Name    string
	Modules []Module
}

// NewSequential builds a sequential container.
func NewSequential(name string, mods ...Module) *Sequential {
	return &Sequential{Name: name, Modules: mods}
}

// Append adds modules to the end of the chain.
func (s *Sequential) Append(mods ...Module) { s.Modules = append(s.Modules, mods...) }

// Forward implements Module.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, m := range s.Modules {
		x = m.Forward(x, train)
	}
	return x
}

// Backward implements Module.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Modules) - 1; i >= 0; i-- {
		grad = s.Modules[i].Backward(grad)
	}
	return grad
}

// Params implements Module.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, m := range s.Modules {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// Visit implements Module.
func (s *Sequential) Visit(f func(Module)) {
	f(s)
	for _, m := range s.Modules {
		m.Visit(f)
	}
}

// Residual computes Body(x) + Shortcut(x); Shortcut may be nil for an
// identity skip. Backward fans the gradient into both branches.
type Residual struct {
	Name     string
	Body     Module
	Shortcut Module // nil means identity
	// PostReLU applies ReLU after the addition (standard ResNet blocks).
	PostReLU bool

	sum *tensor.Tensor // cached pre-ReLU sum for backward
}

// NewResidual builds a residual block.
func NewResidual(name string, body, shortcut Module, postReLU bool) *Residual {
	return &Residual{Name: name, Body: body, Shortcut: shortcut, PostReLU: postReLU}
}

// Forward implements Module.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.Body.Forward(x, train)
	var sc *tensor.Tensor
	if r.Shortcut != nil {
		sc = r.Shortcut.Forward(x, train)
	} else {
		sc = x
	}
	if len(y.Data) != len(sc.Data) {
		panic(fmt.Sprintf("nn: %s body output %v does not match shortcut %v", r.Name, y.Shape, sc.Shape))
	}
	out := tensor.New(y.Shape...)
	tensor.DefaultPool().ParallelRange(len(out.Data), tensor.ElementwiseGrain, func(lo, hi int) {
		dst, a := out.Data[lo:hi], y.Data[lo:hi]
		for i, v := range sc.Data[lo:hi] {
			dst[i] = a[i] + v
		}
	})
	if r.PostReLU {
		if train {
			r.sum = out.Clone()
		}
		out.ReLU()
	}
	return out
}

// Backward implements Module.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := grad
	if r.PostReLU {
		if r.sum == nil {
			panic("nn: Residual.Backward without cached forward")
		}
		g = grad.Clone()
		for i, v := range r.sum.Data {
			if v <= 0 {
				g.Data[i] = 0
			}
		}
	}
	dxBody := r.Body.Backward(g)
	var dxSc *tensor.Tensor
	if r.Shortcut != nil {
		dxSc = r.Shortcut.Backward(g)
	} else {
		dxSc = g
	}
	dx := dxBody.Clone()
	dx.Add(dxSc)
	return dx
}

// Params implements Module.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// Visit implements Module.
func (r *Residual) Visit(f func(Module)) {
	f(r)
	r.Body.Visit(f)
	if r.Shortcut != nil {
		r.Shortcut.Visit(f)
	}
}

// ConcatGrowth computes concat(x, Body(x)) along the channel axis — the
// DenseNet growth pattern. Backward splits the gradient accordingly.
type ConcatGrowth struct {
	Name string
	Body Module

	inC int // cached input channel count for backward splitting
}

// NewConcatGrowth builds a dense-growth block.
func NewConcatGrowth(name string, body Module) *ConcatGrowth {
	return &ConcatGrowth{Name: name, Body: body}
}

// Forward implements Module.
func (d *ConcatGrowth) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := d.Body.Forward(x, train)
	d.inC = x.Shape[1]
	return ConcatChannels(x, y)
}

// Backward implements Module.
func (d *ConcatGrowth) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gx, gy := SplitChannels(grad, d.inC)
	dxBody := d.Body.Backward(gy)
	dx := gx.Clone()
	dx.Add(dxBody)
	return dx
}

// Params implements Module.
func (d *ConcatGrowth) Params() []*Param { return d.Body.Params() }

// Visit implements Module.
func (d *ConcatGrowth) Visit(f func(Module)) {
	f(d)
	d.Body.Visit(f)
}

// ConcatChannels concatenates two NCHW tensors along the channel axis.
func ConcatChannels(a, b *tensor.Tensor) *tensor.Tensor {
	if a.Rank() != 4 || b.Rank() != 4 {
		panic("nn: ConcatChannels requires rank-4 tensors")
	}
	n, ca, h, w := a.Shape[0], a.Shape[1], a.Shape[2], a.Shape[3]
	cb := b.Shape[1]
	if b.Shape[0] != n || b.Shape[2] != h || b.Shape[3] != w {
		panic("nn: ConcatChannels spatial/batch mismatch")
	}
	out := tensor.New(n, ca+cb, h, w)
	hw := h * w
	for s := 0; s < n; s++ {
		copy(out.Data[s*(ca+cb)*hw:], a.Data[s*ca*hw:(s+1)*ca*hw])
		copy(out.Data[(s*(ca+cb)+ca)*hw:], b.Data[s*cb*hw:(s+1)*cb*hw])
	}
	return out
}

// SplitChannels is the inverse of ConcatChannels: it splits an NCHW tensor
// after channel ca.
func SplitChannels(t *tensor.Tensor, ca int) (*tensor.Tensor, *tensor.Tensor) {
	n, c, h, w := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	cb := c - ca
	a := tensor.New(n, ca, h, w)
	b := tensor.New(n, cb, h, w)
	hw := h * w
	for s := 0; s < n; s++ {
		copy(a.Data[s*ca*hw:], t.Data[s*c*hw:s*c*hw+ca*hw])
		copy(b.Data[s*cb*hw:], t.Data[s*c*hw+ca*hw:(s+1)*c*hw])
	}
	return a, b
}

// Convs collects all Conv2D leaves of a module in visiting order. The
// quantization schemes index layers (C1, C2, ...) by this order.
func Convs(m Module) []*Conv2D {
	var out []*Conv2D
	m.Visit(func(mod Module) {
		if c, ok := mod.(*Conv2D); ok {
			out = append(out, c)
		}
	})
	return out
}

// SetConvExec installs a ConvExecutor on every Conv2D in the module tree;
// pass nil to restore the default float path.
func SetConvExec(m Module, e ConvExecutor) {
	for _, c := range Convs(m) {
		c.Exec = e
	}
}

// SetConvExecTail installs a ConvExecutor on every Conv2D except the
// first. Dynamic quantization schemes conventionally keep the first
// (image-consuming) layer at the baseline precision, following DoReFa-Net
// practice, which the paper builds on.
func SetConvExecTail(m Module, e ConvExecutor) {
	for i, c := range Convs(m) {
		if i == 0 {
			continue
		}
		c.Exec = e
	}
}

// SetConvTrainExec installs a training-time straight-through executor on
// every Conv2D except the first (see Conv2D.TrainExec); nil removes it.
func SetConvTrainExec(m Module, e ConvExecutor) {
	for i, c := range Convs(m) {
		if i == 0 {
			continue
		}
		c.TrainExec = e
	}
}

// SetBNFrozen toggles fine-tuning mode on every BatchNorm2D in the tree:
// frozen batch norms normalize with running statistics during training.
func SetBNFrozen(m Module, frozen bool) {
	m.Visit(func(mod Module) {
		if bn, ok := mod.(*BatchNorm2D); ok {
			bn.Frozen = frozen
		}
	})
}
