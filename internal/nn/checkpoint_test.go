package nn

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

func smallNet(seed int64) *Sequential {
	rng := tensor.NewRNG(seed)
	return NewSequential("net",
		NewConv2D("c1", 1, 4, 3, 1, 1, true, rng),
		NewBatchNorm2D("bn1", 4),
		NewReLU("r1"),
		NewGlobalAvgPool2D("gap"),
		NewLinear("fc", 4, 3, rng),
	)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := smallNet(1)
	// Give BN nontrivial stats.
	src.Modules[1].(*BatchNorm2D).RunningMean.Data[2] = 0.7
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}

	dst := smallNet(99) // different init
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(2, 1, 8, 8)
	tensor.NewRNG(3).FillUniform(x, 0, 1)
	a := src.Forward(x, false)
	b := dst.Forward(x, false)
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("loaded model must reproduce source outputs exactly")
	}
}

func TestLoadArchMismatch(t *testing.T) {
	src := smallNet(1)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	other := NewSequential("other", NewLinear("fc", 4, 3, rng))
	if err := Load(&buf, other); err == nil {
		t.Fatal("mismatched architecture must fail to load")
	}
}

func TestLoadGarbage(t *testing.T) {
	if err := Load(bytes.NewBufferString("not a checkpoint"), smallNet(1)); err == nil {
		t.Fatal("garbage input must error")
	}
}

// TestDuplicateParamNamesRejected: two layers sharing a name would
// silently overwrite each other in the state map — Save and Load must
// refuse rather than produce a checkpoint that restores wrong weights.
func TestDuplicateParamNamesRejected(t *testing.T) {
	rng := tensor.NewRNG(1)
	clash := NewSequential("net",
		NewLinear("fc", 4, 4, rng),
		NewReLU("r"),
		NewLinear("fc", 4, 3, rng), // same name as the first Linear
	)
	if _, err := StateTensors(clash); err == nil {
		t.Fatal("StateTensors must reject duplicate parameter names")
	}
	if err := Save(&bytes.Buffer{}, clash); err == nil {
		t.Fatal("Save must reject duplicate parameter names")
	}
	var buf bytes.Buffer
	if err := Save(&buf, smallNet(1)); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, clash); err == nil {
		t.Fatal("Load into a module with duplicate names must error")
	}
}
