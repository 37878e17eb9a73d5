package fabric

import (
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestFabricExecMatchesStaticINT4AllSensitive(t *testing.T) {
	// Run a whole (small) network through the modeled hardware with
	// threshold 0 and compare against static INT4 inference.
	net := models.LeNet5(models.Config{Classes: 10, Seed: 1})
	x := tensor.New(2, 1, 28, 28)
	tensor.NewRNG(2).FillUniform(x, 0, 1)

	fe := New(WithConfig(DefaultConfig(0)))
	nn.SetConvExecTail(net, fe)
	got := net.Forward(x, false)
	nn.SetConvExecTail(net, nil)

	nn.SetConvExecTail(net, quant.NewStaticExec(4))
	want := net.Forward(x, false)
	nn.SetConvExecTail(net, nil)

	if d := tensor.MaxAbsDiff(got, want); d > 1e-3 {
		t.Fatalf("fabric network run deviates from INT4 static by %v", d)
	}
	if fe.TotalCycles == 0 || fe.TotalDRAMBytes == 0 {
		t.Fatal("hardware accounting did not accumulate")
	}
	if f := fe.SensitiveFraction(); f != 1 {
		t.Fatalf("threshold 0 must make everything sensitive, got %v", f)
	}
	if idle := fe.IdleFraction(); idle <= 0 || idle >= 1 {
		t.Fatalf("idle fraction %v out of range", idle)
	}
}

func TestFabricExecMidThresholdRuns(t *testing.T) {
	net := models.LeNet5(models.Config{Classes: 10, Seed: 3})
	x := tensor.New(1, 1, 28, 28)
	tensor.NewRNG(4).FillUniform(x, 0, 1)

	fe := New(WithConfig(DefaultConfig(0.8)))
	nn.SetConvExecTail(net, fe)
	out := net.Forward(x, false)
	nn.SetConvExecTail(net, nil)
	if out.Shape[1] != 10 {
		t.Fatalf("output shape %v", out.Shape)
	}
	f := fe.SensitiveFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("mid threshold should give a mixed mask, got %v", f)
	}
}
