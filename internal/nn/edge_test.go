package nn

import (
	"testing"

	"repro/internal/tensor"
)

// Edge-case and failure-injection coverage for the layer zoo.

func TestConv1x1(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv2D("c", 4, 8, 1, 1, 0, false, rng)
	x := tensor.New(2, 4, 7, 5) // non-square on purpose
	rng.FillNormal(x, 0, 1)
	out := c.Forward(x, false)
	if out.Shape[2] != 7 || out.Shape[3] != 5 {
		t.Fatalf("1x1 conv must preserve spatial dims: %v", out.Shape)
	}
	// A 1×1 conv is a per-pixel matmul; verify one output by hand.
	var want float32
	for ic := 0; ic < 4; ic++ {
		want += c.Weight.W.Data[1*4+ic] * x.At4(0, ic, 3, 2)
	}
	if got := out.At4(0, 1, 3, 2); abs32(got-want) > 1e-5 {
		t.Fatalf("1x1 conv value %v, want %v", got, want)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestConvNonSquareGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	c := NewConv2D("c", 2, 3, 3, 2, 1, true, rng)
	x := tensor.New(1, 2, 9, 5)
	rng.FillNormal(x, 0, 1)
	gradCheck(t, c, x, 0.03)
}

func TestConvChannelMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := NewConv2D("c", 3, 4, 3, 1, 1, false, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on channel mismatch")
		}
	}()
	c.Forward(tensor.New(1, 2, 8, 8), false)
}

func TestConvRankMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(4)
	c := NewConv2D("c", 3, 4, 3, 1, 1, false, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rank mismatch")
		}
	}()
	c.Forward(tensor.New(3, 8, 8), false)
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(5)
	mods := []Module{
		NewConv2D("c", 1, 1, 3, 1, 1, false, rng),
		NewBatchNorm2D("bn", 1),
		NewReLU("r"),
		NewMaxPool2D("p", 2, 2),
		NewLinear("fc", 2, 2, rng),
	}
	g := tensor.New(1, 1, 2, 2)
	for _, m := range mods {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T: expected panic on backward without forward", m)
				}
			}()
			m.Backward(g)
		}()
	}
}

type fixedExec struct{ v float32 }

func (f fixedExec) Conv(x *tensor.Tensor, l *Conv2D) *tensor.Tensor {
	g := l.Geom(x.Shape[2], x.Shape[3])
	out := tensor.New(x.Shape[0], g.OutC, g.OutH, g.OutW)
	out.Fill(f.v)
	return out
}

func TestTrainExecStraightThrough(t *testing.T) {
	rng := tensor.NewRNG(6)
	c := NewConv2D("c", 1, 1, 3, 1, 1, false, rng)
	c.TrainExec = fixedExec{v: 7}
	x := tensor.New(1, 1, 4, 4)
	rng.FillNormal(x, 0, 1)

	out := c.Forward(x, true)
	for _, v := range out.Data {
		if v != 7 {
			t.Fatalf("TrainExec output must be forwarded, got %v", v)
		}
	}
	// Backward must still run off the plain-conv cache (STE).
	grad := tensor.New(out.Shape...)
	grad.Fill(1)
	c.Weight.ZeroGrad()
	dx := c.Backward(grad)
	if dx.L2() == 0 || c.Weight.Grad.L2() == 0 {
		t.Fatal("straight-through gradients must flow through the plain conv")
	}

	// Inference must ignore TrainExec entirely.
	inf := c.Forward(x, false)
	for _, v := range inf.Data {
		if v == 7 {
			t.Fatal("TrainExec must not affect inference")
		}
		break
	}
}

func TestBNFrozenUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	bn.RunningMean.Data[0] = 5
	bn.RunningVar.Data[0] = 4
	SetBNFrozen(bn, true)
	x := tensor.New(2, 1, 2, 2)
	x.Fill(5) // equals the running mean → normalized output 0
	out := bn.Forward(x, true)
	for _, v := range out.Data {
		if abs32(v) > 1e-4 {
			t.Fatalf("frozen BN must use running stats: got %v", v)
		}
	}
	// Running stats must not update while frozen.
	if bn.RunningMean.Data[0] != 5 || bn.RunningVar.Data[0] != 4 {
		t.Fatal("frozen BN must not update running statistics")
	}
	// Backward path works and produces gamma/beta gradients.
	g := tensor.New(x.Shape...)
	g.Fill(1)
	dx := bn.Backward(g)
	if dx.SameShape(x) == false {
		t.Fatal("frozen BN backward shape wrong")
	}
	if bn.Beta.Grad.Data[0] == 0 {
		t.Fatal("frozen BN must still accumulate beta gradient")
	}
}

func TestQuantRelaxedBypassesWeightQuant(t *testing.T) {
	rng := tensor.NewRNG(7)
	c := NewConv2D("c", 1, 1, 1, 1, 0, false, rng)
	c.WeightQuant = coarseQuant{}
	x := tensor.New(1, 1, 2, 2)
	x.Fill(1)

	quantized := c.Forward(x, false).Data[0]
	c.QuantRelaxed = true
	relaxed := c.Forward(x, false).Data[0]
	if quantized == relaxed {
		t.Fatal("QuantRelaxed must bypass the fake quantizer")
	}
	if relaxed != c.Weight.W.Data[0] {
		t.Fatal("relaxed path must use raw weights")
	}
}

type coarseQuant struct{}

func (coarseQuant) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		if v >= 0 {
			out.Data[i] = 1
		} else {
			out.Data[i] = -1
		}
	}
	return out
}

func (coarseQuant) Backward(grad, _ *tensor.Tensor) *tensor.Tensor { return grad.Clone() }

// countingQuant is an identity FakeQuant that counts Forward calls.
type countingQuant struct{ calls int }

func (q *countingQuant) Forward(x *tensor.Tensor) *tensor.Tensor {
	q.calls++
	return x
}

func (q *countingQuant) Backward(grad, _ *tensor.Tensor) *tensor.Tensor { return grad }

// TestExecForwardSkipsFakeQuant checks that an eval forward through an
// installed executor fake-quantizes nothing (the executor quantizes for
// itself), while the float and training paths quantize the weights and
// the activations once per forward.
func TestExecForwardSkipsFakeQuant(t *testing.T) {
	rng := tensor.NewRNG(9)
	c := NewConv2D("c", 2, 3, 3, 1, 1, false, rng)
	wq, aq := &countingQuant{}, &countingQuant{}
	c.WeightQuant, c.ActQuant = wq, aq
	x := tensor.New(1, 2, 5, 5)
	rng.FillNormal(x, 0, 1)
	check := func(what string, want int) {
		t.Helper()
		if wq.calls != want || aq.calls != want {
			t.Fatalf("%s: %d weight and %d activation fake-quant calls, want %d each", what, wq.calls, aq.calls, want)
		}
		wq.calls, aq.calls = 0, 0
	}

	c.Forward(x, false)
	check("float eval forward", 1)
	c.Exec = fixedExec{v: 1}
	c.Forward(x, false)
	check("executor eval forward", 0)
	c.Forward(x, true)
	check("training forward with an executor installed", 1)
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(8)
	// Body halves the spatial size but there is no matching shortcut.
	body := NewConv2D("b", 2, 2, 3, 2, 1, false, rng)
	r := NewResidual("res", body, nil, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on residual shape mismatch")
		}
	}()
	r.Forward(tensor.New(1, 2, 8, 8), false)
}

func TestSequentialEmpty(t *testing.T) {
	s := NewSequential("empty")
	x := tensor.New(1, 1, 2, 2)
	out := s.Forward(x, false)
	if out != x {
		t.Fatal("empty sequential must be identity")
	}
	if s.Params() != nil {
		t.Fatal("empty sequential has no params")
	}
}

func TestGlobalAvgPool1x1(t *testing.T) {
	p := NewGlobalAvgPool2D("g")
	x := tensor.New(1, 3, 1, 1)
	x.Data = []float32{1, 2, 3}
	out := p.Forward(x, false)
	for i, v := range out.Data {
		if v != x.Data[i] {
			t.Fatal("1x1 GAP must be identity per channel")
		}
	}
}
