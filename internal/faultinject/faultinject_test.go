package faultinject

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// testNet builds a small trainable CNN; inject selects whether the
// second conv is wrapped with a NaN injector (returned when so).
func testNet(seed int64, mode Where, after int, inject bool) (*nn.Sequential, *NaNInjector) {
	rng := tensor.NewRNG(seed)
	conv2 := nn.NewConv2D("c2", 8, 16, 3, 1, 1, false, rng)
	var mid nn.Module = conv2
	var inj *NaNInjector
	if inject {
		inj = NewNaNInjector(conv2, mode, after)
		mid = inj
	}
	net := nn.NewSequential("fi",
		nn.NewConv2D("c1", 3, 8, 3, 1, 1, false, rng),
		nn.NewBatchNorm2D("b1", 8),
		nn.NewReLU("r1"),
		mid,
		nn.NewBatchNorm2D("b2", 16),
		nn.NewReLU("r2"),
		nn.NewGlobalAvgPool2D("gap"),
		nn.NewLinear("fc", 16, 4, rng),
	)
	return net, inj
}

func encodeCheckpoint(t *testing.T) []byte {
	t.Helper()
	net, _ := testNet(1, InForward, 0, false)
	state, err := nn.StateTensors(net)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = ckpt.Write(&buf, &ckpt.Checkpoint{
		Model: state,
		RNG:   &ckpt.RNGState{Seed: 1},
		Progress: &ckpt.Progress{
			Epoch: 2, Step: 64, LR: 0.01,
			Loss: []float32{1.5, 1.1}, TrainAcc: []float64{0.4, 0.6},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncationAlwaysDetected: a checkpoint cut at ANY byte boundary
// must fail to decode — a truncated file silently loading as a shorter
// model would be the worst possible outcome.
func TestTruncationAlwaysDetected(t *testing.T) {
	full := encodeCheckpoint(t)
	for n := 0; n < len(full); n++ {
		if _, err := ckpt.Read(bytes.NewReader(Truncate(full, n))); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
}

// TestBitFlipAlwaysDetected: every single-bit flip anywhere in the file
// — header, section framing, tensor payloads, the checksums themselves —
// must yield a decode error. The whole-file CRC makes this exhaustive
// guarantee possible.
func TestBitFlipAlwaysDetected(t *testing.T) {
	full := encodeCheckpoint(t)
	for bit := 0; bit < len(full)*8; bit++ {
		if _, err := ckpt.Read(bytes.NewReader(BitFlip(full, bit))); err == nil {
			t.Fatalf("bit flip at offset %d (byte %d) decoded without error", bit, bit/8)
		}
	}
}

// TestZeroFillDetected: zero-filled windows (filesystem holes after a
// crash) must be detected whenever they actually change bytes.
func TestZeroFillDetected(t *testing.T) {
	full := encodeCheckpoint(t)
	windows := []struct{ off, n int }{
		{0, 8},               // magic
		{8, 8},               // version + section count
		{20, 16},             // first section framing
		{len(full) / 2, 32},  // mid-payload
		{len(full) - 4, 4},   // whole-file CRC
		{len(full) - 64, 64}, // tail
		{0, len(full)},       // the whole file
		{len(full) / 3, 1},   // single byte
	}
	for _, w := range windows {
		mutated := ZeroFill(full, w.off, w.n)
		if !Changed(full, mutated) {
			continue // zeroing zeros is not a corruption
		}
		if _, err := ckpt.Read(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("zero-fill at [%d,%d) decoded without error", w.off, w.off+w.n)
		}
	}
}

// TestV1TruncationDetected: nn.Load, the path every CLI and hot reload
// goes through, must reject a truncated checkpoint rather than half-load
// it into the model.
func TestV1TruncationDetected(t *testing.T) {
	net, _ := testNet(1, InForward, 0, false)
	state, err := nn.StateTensors(net)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, &ckpt.Checkpoint{Model: state}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	dst, _ := testNet(2, InForward, 0, false)
	for _, n := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if err := nn.Load(bytes.NewReader(Truncate(full, n)), dst); err == nil {
			t.Fatalf("nn.Load of %d/%d bytes succeeded", n, len(full))
		}
	}
}

func trainingData() *dataset.Dataset {
	return dataset.SyntheticImages(4, 64, 3, 12, 12, 3)
}

// counterDelta runs f and returns how much the named counter moved.
func counterDelta(name string, f func()) int64 {
	c := telemetry.GetCounter(name)
	telemetry.Enable()
	defer telemetry.Disable()
	before := c.Value()
	f()
	return c.Value() - before
}

// TestNaNAbortPolicy: an injected NaN gradient must abort training with
// an explicit error and bump the nan_events counter — never be stepped
// into the weights.
func TestNaNAbortPolicy(t *testing.T) {
	net, inj := testNet(5, InBackward, 3, true)
	var fitErr error
	d := counterDelta("train.nan_events", func() {
		_, fitErr = train.Fit(net, trainingData(), train.Options{
			Epochs: 2, BatchSize: 16, LR: 0.05, Seed: 7,
			NaNPolicy: train.NaNAbort,
		})
	})
	if fitErr == nil {
		t.Fatal("NaNAbort must surface an error")
	}
	if !strings.Contains(fitErr.Error(), "non-finite") {
		t.Fatalf("error should name the failure: %v", fitErr)
	}
	if inj.Injections() == 0 {
		t.Fatal("injector never fired; test is vacuous")
	}
	if d == 0 {
		t.Fatal("train.nan_events must count the detection")
	}
	assertWeightsFinite(t, net)
}

// TestNaNForwardAbortPolicy: a poisoned activation surfaces as a
// non-finite loss and is likewise detected before any backward pass.
func TestNaNForwardAbortPolicy(t *testing.T) {
	net, inj := testNet(6, InForward, 2, true)
	_, err := train.Fit(net, trainingData(), train.Options{
		Epochs: 2, BatchSize: 16, LR: 0.05, Seed: 7,
		NaNPolicy: train.NaNAbort,
	})
	if err == nil {
		t.Fatal("poisoned activation must abort training")
	}
	if inj.Injections() == 0 {
		t.Fatal("injector never fired")
	}
	assertWeightsFinite(t, net)
}

// TestNaNSkipPolicy: the poisoned batch is discarded, training completes,
// and the final weights are finite.
func TestNaNSkipPolicy(t *testing.T) {
	net, inj := testNet(8, InBackward, 2, true)
	var hist *train.History
	var fitErr error
	d := counterDelta("train.nan_skipped_steps", func() {
		hist, fitErr = train.Fit(net, trainingData(), train.Options{
			Epochs: 3, BatchSize: 16, LR: 0.05, Seed: 9,
			NaNPolicy: train.NaNSkip,
		})
	})
	if fitErr != nil {
		t.Fatalf("NaNSkip must recover: %v", fitErr)
	}
	if inj.Injections() == 0 {
		t.Fatal("injector never fired")
	}
	if d == 0 {
		t.Fatal("train.nan_skipped_steps must count the skip")
	}
	if len(hist.Loss) != 3 {
		t.Fatalf("training must complete all epochs, got %d", len(hist.Loss))
	}
	assertWeightsFinite(t, net)
	if hist.Loss[len(hist.Loss)-1] >= hist.Loss[0] {
		t.Fatalf("skip policy must still converge: %v", hist.Loss)
	}
}

// TestNaNRollbackPolicy: training rolls back to the last good state,
// halves the LR and still converges.
func TestNaNRollbackPolicy(t *testing.T) {
	net, inj := testNet(10, InBackward, 6, true)
	var hist *train.History
	var fitErr error
	d := counterDelta("train.nan_rollbacks", func() {
		hist, fitErr = train.Fit(net, trainingData(), train.Options{
			Epochs: 3, BatchSize: 16, LR: 0.05, Seed: 11,
			NaNPolicy: train.NaNRollback,
		})
	})
	if fitErr != nil {
		t.Fatalf("NaNRollback must recover: %v", fitErr)
	}
	if inj.Injections() == 0 {
		t.Fatal("injector never fired")
	}
	if d == 0 {
		t.Fatal("train.nan_rollbacks must count the restore")
	}
	if len(hist.Loss) != 3 {
		t.Fatalf("training must complete all epochs after rollback, got %d", len(hist.Loss))
	}
	assertWeightsFinite(t, net)
	if hist.Loss[len(hist.Loss)-1] >= hist.Loss[0] {
		t.Fatalf("rollback policy must still converge: %v", hist.Loss)
	}
}

// TestPersistentNaNEventuallyAborts: when the fault fires on every step,
// rollback must give up after MaxRollbacks instead of looping forever.
func TestPersistentNaNEventuallyAborts(t *testing.T) {
	net, inj := testNet(12, InBackward, 0, true)
	inj.Once = false // poison every backward pass
	_, err := train.Fit(net, trainingData(), train.Options{
		Epochs: 2, BatchSize: 16, LR: 0.05, Seed: 13,
		NaNPolicy: train.NaNRollback, MaxRollbacks: 2,
	})
	if err == nil {
		t.Fatal("a persistent fault must eventually abort")
	}
	if !strings.Contains(err.Error(), "rollback") {
		t.Fatalf("error should mention rollbacks: %v", err)
	}
}

// TestInfInjectionDetected: overflow (±Inf) is screened exactly like NaN.
func TestInfInjectionDetected(t *testing.T) {
	net, inj := testNet(14, InBackward, 1, true)
	inj.Value = float32(math.Inf(1))
	_, err := train.Fit(net, trainingData(), train.Options{
		Epochs: 2, BatchSize: 16, LR: 0.05, Seed: 15,
		NaNPolicy: train.NaNAbort,
	})
	if err == nil {
		t.Fatal("injected Inf must abort training")
	}
	if inj.Injections() == 0 {
		t.Fatal("injector never fired")
	}
}

// TestIgnorePolicyPreservesLegacyBehavior: NaNIgnore really does train
// through the poison (the legacy behavior the other policies exist to
// replace) — this pins down that detection is what the policies add,
// not an accident of refactoring.
func TestIgnorePolicyPreservesLegacyBehavior(t *testing.T) {
	net, inj := testNet(16, InBackward, 1, true)
	hist, err := train.Fit(net, trainingData(), train.Options{
		Epochs: 1, BatchSize: 16, LR: 0.05, Seed: 17,
		NaNPolicy: train.NaNIgnore,
	})
	if err != nil {
		t.Fatalf("NaNIgnore must not error: %v", err)
	}
	if inj.Injections() == 0 {
		t.Fatal("injector never fired")
	}
	_ = hist
}

func assertWeightsFinite(t *testing.T, net nn.Module) {
	t.Helper()
	for _, p := range net.Params() {
		for i, v := range p.W.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("parameter %s[%d] is non-finite after training: %v", p.Name, i, v)
			}
		}
	}
}
