package quant

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestWeightCodesPerChannelScales(t *testing.T) {
	// Two filters with very different magnitudes: per-channel scales
	// must differ while per-tensor coupling would share one.
	w := tensor.New(2, 1, 2, 2)
	for i := 0; i < 4; i++ {
		w.Data[i] = float32(i+1) * 0.01 // small filter
		w.Data[4+i] = float32(i+1) * 1  // big filter
	}
	codes, scales := WeightCodesPerChannel(w, 4)
	if len(scales) != 2 {
		t.Fatalf("scales %v", scales)
	}
	if scales[0] >= scales[1] {
		t.Fatalf("small filter must get the finer scale: %v", scales)
	}
	// Both filters should use the full code range despite the 100x
	// magnitude gap.
	maxCode := func(o int) int32 {
		var m int32
		for i := 0; i < 4; i++ {
			c := codes.Data[o*4+i]
			if c < 0 {
				c = -c
			}
			if c > m {
				m = c
			}
		}
		return m
	}
	if maxCode(0) < 5 || maxCode(1) < 5 {
		t.Fatalf("per-channel codes underutilized: %d %d", maxCode(0), maxCode(1))
	}
}

func TestPerChannelBeatsPerTensorOnSkewedFilters(t *testing.T) {
	rng := tensor.NewRNG(1)
	conv := nn.NewConv2D("c", 3, 4, 3, 1, 1, false, rng)
	// Skew filter magnitudes by ~30x across output channels.
	per := conv.Weight.W.Len() / 4
	for o := 0; o < 4; o++ {
		mag := float32(1)
		if o == 3 {
			mag = 30
		}
		for i := 0; i < per; i++ {
			conv.Weight.W.Data[o*per+i] *= mag
		}
	}
	x := tensor.New(1, 3, 8, 8)
	rng.FillUniform(x, 0, 1)
	ref := conv.Forward(x, false)

	conv.Exec = NewStaticExec(4)
	perTensor := conv.Forward(x, false)
	conv.Exec = NewPerChannelExec(4)
	perChan := conv.Forward(x, false)
	conv.Exec = nil

	errT := tensor.MeanAbsDiff(ref, perTensor)
	errC := tensor.MeanAbsDiff(ref, perChan)
	if errC >= errT {
		t.Fatalf("per-channel error %v should beat per-tensor %v on skewed filters", errC, errT)
	}
}

func TestDequantAccumPerChannel(t *testing.T) {
	g := tensor.Geometry(1, 2, 2, 2, 1, 1, 0)
	acc := []int64{1, 2, 3, 4, 10, 20, 30, 40}
	out := DequantAccumPerChannel(acc, 0.5, []float32{1, 0.1}, 1, g)
	if out.Data[0] != 0.5 || out.Data[4] != 0.5 {
		t.Fatalf("per-channel dequant wrong: %v", out.Data)
	}
}

func TestPerChannelExecProfiler(t *testing.T) {
	rng := tensor.NewRNG(2)
	conv := nn.NewConv2D("c", 2, 2, 3, 1, 1, false, rng)
	e := NewPerChannelExec(8, WithStaticProfiling())
	conv.Exec = e
	conv.Forward(tensor.New(1, 2, 6, 6), false)
	if len(e.Profiles()) != 1 {
		t.Fatal("profiler must record")
	}
}

func TestWeightCodesPerChannelBadRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-4D weights")
		}
	}()
	WeightCodesPerChannel(tensor.New(4, 4), 4)
}
