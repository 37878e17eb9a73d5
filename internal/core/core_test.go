package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func testConvAndInput(seed int64) (*nn.Conv2D, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	conv := nn.NewConv2D("c", 3, 4, 3, 1, 1, false, rng)
	x := tensor.New(1, 3, 10, 10)
	rng.FillUniform(x, 0, 1)
	return conv, x
}

func TestAllSensitiveEqualsStaticINT4(t *testing.T) {
	conv, x := testConvAndInput(1)
	e := NewExec(-1) // every output clears a negative threshold
	conv.Exec = e
	got := conv.Forward(x, false)
	conv.Exec = quant.NewStaticExec(4)
	want := conv.Forward(x, false)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("all-sensitive ODQ must equal static INT4, diff %v", d)
	}
}

func TestNoneSensitiveIsPredictorOnly(t *testing.T) {
	conv, x := testConvAndInput(2)
	e := NewExec(1e9)
	conv.Exec = e
	got := conv.Forward(x, false)

	// Manually compute the high×high partial with the executor's
	// rounded splits.
	qx := quant.ActCodes(x, 4)
	xh, _ := quant.SplitCodesRounded(qx, 2, false)
	qw := quant.WeightCodes(conv.Weight.W, 4)
	wh, _ := quant.SplitCodesRounded(qw, 2, true)
	acc, g := quant.ConvAccum(xh, wh, 1, 1)
	want := quant.DequantAccum(acc, xh.Scale*wh.Scale, 1, g)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-6 {
		t.Fatalf("insensitive outputs must carry only the predictor term, diff %v", d)
	}
}

func TestSensitiveOutputsAreExact(t *testing.T) {
	conv, x := testConvAndInput(3)
	e := NewExec(0.25, WithMaskRecording())
	conv.Exec = e
	got := conv.Forward(x, false)
	conv.Exec = quant.NewStaticExec(4)
	full := conv.Forward(x, false)

	p := e.Profiles()[0]
	if p.SensitiveOutputs == 0 || p.SensitiveOutputs == p.TotalOutputs {
		t.Fatalf("want a mixed mask, got %d/%d sensitive", p.SensitiveOutputs, p.TotalOutputs)
	}
	for i, sens := range p.Mask {
		if sens {
			if d := math.Abs(float64(got.Data[i] - full.Data[i])); d > 1e-4 {
				t.Fatalf("sensitive output %d deviates from full INT4 by %v", i, d)
			}
		}
	}
}

func TestSensitiveFractionMonotoneInThreshold(t *testing.T) {
	conv, x := testConvAndInput(4)
	fracAt := func(th float32) float64 {
		e := NewExec(th, WithProfiling())
		conv.Exec = e
		conv.Forward(x, false)
		conv.Exec = nil
		return e.SensitiveFraction()
	}
	f0 := fracAt(0)
	f1 := fracAt(0.2)
	f2 := fracAt(0.5)
	f3 := fracAt(5)
	if !(f0 >= f1 && f1 >= f2 && f2 >= f3) {
		t.Fatalf("sensitive fraction must fall with threshold: %v %v %v %v", f0, f1, f2, f3)
	}
	if f3 != 0 {
		t.Fatalf("huge threshold must give zero sensitivity, got %v", f3)
	}
}

func TestMaskRecordedPerOutput(t *testing.T) {
	conv, x := testConvAndInput(5)
	e := NewExec(0.3, WithMaskRecording())
	conv.Exec = e
	conv.Forward(x, false)
	p := e.Profiles()[0]
	if len(p.Mask) != int(p.TotalOutputs) {
		t.Fatalf("mask length %d, want %d", len(p.Mask), p.TotalOutputs)
	}
	var cnt int64
	for _, m := range p.Mask {
		if m {
			cnt++
		}
	}
	if cnt != p.SensitiveOutputs {
		t.Fatalf("mask popcount %d != recorded %d", cnt, p.SensitiveOutputs)
	}
}

func TestODQOnNetworkTracksStaticINT4(t *testing.T) {
	cfg := models.Config{Classes: 10, Scale: 0.25, Seed: 7}
	net := models.ResNet(20, cfg)
	ds := dataset.SyntheticCIFAR10(16, 8)
	x, _ := ds.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})

	nn.SetConvExec(net, quant.NewStaticExec(4))
	refLogits := net.Forward(x, false)

	e := NewExec(-1) // all sensitive → should match INT4 closely end to end
	nn.SetConvExec(net, e)
	odqLogits := net.Forward(x, false)
	nn.SetConvExec(net, nil)

	if d := tensor.MaxAbsDiff(refLogits, odqLogits); d > 1e-2 {
		t.Fatalf("all-sensitive ODQ logits deviate from INT4 static by %v", d)
	}
}

func TestInitialThresholdPercentiles(t *testing.T) {
	cfg := models.Config{Classes: 10, Scale: 0.25, Seed: 9}
	net := models.ResNet(20, cfg)
	ds := dataset.SyntheticCIFAR10(8, 10)
	x, _ := ds.Batch([]int{0, 1, 2, 3})

	e := NewExec(0.5)
	p50 := e.InitialThreshold(net, x, 0.5)
	p95 := e.InitialThreshold(net, x, 0.95)
	if p95 <= 0 {
		t.Fatalf("p95 threshold = %v", p95)
	}
	if p50 > p95 {
		t.Fatalf("percentiles out of order: p50=%v p95=%v", p50, p95)
	}
	if e.Threshold() != 0.5 {
		t.Fatalf("InitialThreshold must not clobber Threshold, got %v", e.Threshold())
	}
}

func TestFindThresholdHalves(t *testing.T) {
	e := NewExec(0)
	// Mock accuracy: improves as the threshold shrinks; reference 0.9.
	evalAcc := func() float64 {
		return 0.9 - float64(e.Threshold())*0.5
	}
	res := e.FindThreshold(0.8, 0.9, 0.06, 10, nil, evalAcc)
	if !res.Converged {
		t.Fatalf("search did not converge: %+v", res)
	}
	// Needs 0.9-acc <= 0.06 → threshold <= 0.12 → 0.8→0.4→0.2→0.1.
	if res.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", res.Iterations)
	}
	if math.Abs(float64(res.Threshold)-0.1) > 1e-6 {
		t.Fatalf("threshold = %v, want 0.1", res.Threshold)
	}
	if len(res.Trace) != 4 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
}

func TestFindThresholdGivesUp(t *testing.T) {
	e := NewExec(0)
	res := e.FindThreshold(1, 0.9, 0.001, 3, nil, func() float64 { return 0.1 })
	if res.Converged {
		t.Fatal("impossible target must not converge")
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestFindThresholdRetrainHookRuns(t *testing.T) {
	e := NewExec(0)
	var seen []float32
	retrain := func(th float32) { seen = append(seen, th) }
	e.FindThreshold(0.4, 0.5, 1.0, 5, retrain, func() float64 { return 0.5 })
	if len(seen) != 1 || seen[0] != 0.4 {
		t.Fatalf("retrain calls: %v", seen)
	}
}

func TestLayerThresholdOverride(t *testing.T) {
	conv, x := testConvAndInput(12)
	global := NewExec(0.5, WithProfiling())
	conv.Exec = global
	conv.Forward(x, false)
	baseSens := global.Profiles()[0].SensitiveOutputs

	over := NewExec(0.5, WithLayerThresholds(map[string]float32{"c": 0}), WithProfiling())
	conv.Exec = over
	conv.Forward(x, false)
	p := over.Profiles()[0]
	if p.SensitiveOutputs != p.TotalOutputs {
		t.Fatalf("override to 0 must mark all sensitive, got %d/%d",
			p.SensitiveOutputs, p.TotalOutputs)
	}
	if baseSens == p.TotalOutputs {
		t.Fatal("baseline should have had insensitive outputs for this test to mean anything")
	}

	// Overrides for other layers must not apply.
	other := NewExec(0.5, WithLayerThresholds(map[string]float32{"not-this-layer": 0}), WithProfiling())
	conv.Exec = other
	conv.Forward(x, false)
	if other.Profiles()[0].SensitiveOutputs != baseSens {
		t.Fatal("override keyed to another layer must not change behaviour")
	}
}

func TestGeneralizedBitWidths(t *testing.T) {
	// The paper notes ODQ "can be easily extended to support other types
	// of precision, e.g., INT8". Verify the 8/4 configuration is exact
	// for sensitive outputs too.
	conv, x := testConvAndInput(11)
	e := NewExec(-1, WithBits(8), WithPredBits(4))
	conv.Exec = e
	got := conv.Forward(x, false)
	conv.Exec = quant.NewStaticExec(8)
	want := conv.Forward(x, false)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("INT8 ODQ all-sensitive deviates from INT8 static by %v", d)
	}
}
