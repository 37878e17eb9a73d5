package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestLevels(t *testing.T) {
	if ActLevels(4) != 15 || ActLevels(2) != 3 || ActLevels(8) != 255 {
		t.Fatal("ActLevels wrong")
	}
	if WeightLevels(4) != 7 || WeightLevels(2) != 1 || WeightLevels(8) != 127 {
		t.Fatal("WeightLevels wrong")
	}
}

func TestActCodesRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.New(100)
	rng.FillUniform(x, 0, 1)
	for _, bits := range []int{2, 4, 8, 16} {
		q := ActCodes(x, bits)
		d := q.Dequantize()
		maxErr := tensor.MaxAbsDiff(x, d)
		half := q.Scale / 2
		if maxErr > half*1.0001 {
			t.Fatalf("bits=%d: round-trip error %v exceeds half-step %v", bits, maxErr, half)
		}
		for _, c := range q.Data {
			if c < 0 || c > ActLevels(bits) {
				t.Fatalf("bits=%d: code %d out of range", bits, c)
			}
		}
	}
}

func TestActCodesClamps(t *testing.T) {
	x := tensor.NewFrom([]float32{-5, 0.5, 7}, 3)
	q := ActCodes(x, 4)
	if q.Data[0] != 0 || q.Data[2] != 15 {
		t.Fatalf("clamping wrong: %v", q.Data)
	}
}

func TestWeightCodesSymmetric(t *testing.T) {
	x := tensor.NewFrom([]float32{-1, -0.5, 0, 0.5, 1}, 5)
	q := WeightCodes(x, 4)
	if q.Data[0] != -7 || q.Data[4] != 7 || q.Data[2] != 0 {
		t.Fatalf("weight codes %v", q.Data)
	}
	// Quantizing the negation must negate the codes (symmetry).
	neg := x.Clone()
	neg.Scale(-1)
	qn := WeightCodes(neg, 4)
	for i := range q.Data {
		if q.Data[i] != -qn.Data[i] {
			t.Fatal("weight quantization must be odd-symmetric")
		}
	}
}

func TestWeightCodesZeroTensor(t *testing.T) {
	q := WeightCodes(tensor.New(4), 4)
	for _, c := range q.Data {
		if c != 0 {
			t.Fatal("zero tensor must quantize to zero codes")
		}
	}
}

func TestSplitCodesRoundedExactAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		w := tensor.New(64)
		rng.FillNormal(w, 0, 0.5)
		q := WeightCodes(w, 4)
		hi, lo := SplitCodesRounded(q, 2, true)
		for i, c := range q.Data {
			if hi.Data[i]<<2+lo.Data[i] != c {
				return false
			}
			if hi.Data[i] < -2 || hi.Data[i] > 1 {
				return false
			}
			if lo.Data[i] < -3 || lo.Data[i] > 3 {
				return false
			}
		}
		a := tensor.New(64)
		rng.FillUniform(a, 0, 1)
		qa := ActCodes(a, 4)
		ah, al := SplitCodesRounded(qa, 2, false)
		for i, c := range qa.Data {
			if ah.Data[i]<<2+al.Data[i] != c {
				return false
			}
			if ah.Data[i] < 0 || ah.Data[i] > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}

	// Exhaustively: every weight code (signed) and every activation code
	// (unsigned) of every width the executors accept, at every split.
	for bits := 2; bits <= 16; bits++ {
		for lowBits := 1; lowBits < bits; lowBits++ {
			h := uint(bits - lowBits)
			loMax := int32(1)<<uint(lowBits) - 1
			for _, signed := range []bool{true, false} {
				first, last := int32(0), ActLevels(bits)
				hiMin, hiMax := int32(0), int32(1)<<h-1
				if signed {
					first, last = -WeightLevels(bits), WeightLevels(bits)
					hiMin, hiMax = -(int32(1) << (h - 1)), int32(1)<<(h-1)-1
				}
				q := tensor.NewInt(bits, 1, int(last-first+1))
				for i := range q.Data {
					q.Data[i] = first + int32(i)
				}
				hi, lo := SplitCodesRounded(q, lowBits, signed)
				for i, c := range q.Data {
					hc, lc := hi.Data[i], lo.Data[i]
					if hc<<uint(lowBits)+lc != c || hc < hiMin || hc > hiMax || lc < -loMax || lc > loMax {
						t.Fatalf("bits %d/%d signed=%v code %d: hi %d lo %d (hi in [%d,%d], |lo| <= %d)",
							bits, lowBits, signed, c, hc, lc, hiMin, hiMax, loMax)
					}
				}
			}
		}
	}
}

func TestRoundedSplitShrinksDeadZone(t *testing.T) {
	// Rounding to nearest means only |c| ≤ 1 lands in the predictor's
	// dead zone; with truncation everything below |c| = 4 vanished.
	q := tensor.NewInt(4, 1, 15)
	for i := range q.Data {
		q.Data[i] = int32(i) - 7 // -7..7
	}
	hi, _ := SplitCodesRounded(q, 2, true)
	for i, c := range q.Data {
		wantZero := c >= -1 && c <= 1
		isZero := hi.Data[i] == 0
		if wantZero != isZero {
			t.Fatalf("code %d: hi=%d (zero=%v, want %v)", c, hi.Data[i], isZero, wantZero)
		}
	}
}

// TestFourPartComposition verifies the paper's Eq. 3: the full integer
// convolution equals the sum of the four partial convolutions
// HH<<4 + (HL+LH)<<2 + LL, exactly, on integer accumulators.
func TestFourPartComposition(t *testing.T) {
	rng := tensor.NewRNG(7)
	x := tensor.New(1, 3, 8, 8)
	rng.FillUniform(x, 0, 1)
	w := tensor.New(4, 3, 3, 3)
	rng.FillNormal(w, 0, 0.3)

	qx := ActCodes(x, 4)
	qw := WeightCodes(w, 4)
	full, g := ConvAccum(qx, qw, 1, 1)

	xh, xl := SplitCodesRounded(qx, 2, false)
	wh, wl := SplitCodesRounded(qw, 2, true) // the splits the ODQ executor uses
	hh, _ := ConvAccum(xh, wh, 1, 1)
	hl, _ := ConvAccum(xh, wl, 1, 1)
	lh, _ := ConvAccum(xl, wh, 1, 1)
	ll, _ := ConvAccum(xl, wl, 1, 1)
	_ = g
	for i := range full {
		composed := hh[i]<<4 + (hl[i]+lh[i])<<2 + ll[i]
		if composed != full[i] {
			t.Fatalf("Eq.3 violated at %d: %d vs %d", i, composed, full[i])
		}
	}
}

func TestConvAccumMatchesFloatConv(t *testing.T) {
	rng := tensor.NewRNG(9)
	x := tensor.New(2, 2, 6, 6)
	rng.FillUniform(x, 0, 1)
	// Uniform weights keep max|w| below the σ-clip bound, so the grid
	// covers every weight exactly.
	w := tensor.New(3, 2, 3, 3)
	rng.FillUniform(w, -0.5, 0.5)

	// High-precision quantized conv should track the float conv closely.
	qx := ActCodes(x, 16)
	qw := WeightCodes(w, 16)
	acc, g := ConvAccum(qx, qw, 1, 1)
	got := DequantAccum(acc, qx.Scale*qw.Scale, 2, g)

	conv := nn.NewConv2D("c", 2, 3, 3, 1, 1, false, rng)
	conv.Weight.W = w
	want := conv.Forward(x, false)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-3 {
		t.Fatalf("INT16 conv deviates from float conv by %v", d)
	}
}

func TestActQuantizerForwardGrid(t *testing.T) {
	q := &ActQuantizer{Bits: 2} // grid {0, 1/3, 2/3, 1}
	x := tensor.NewFrom([]float32{-1, 0.1, 0.5, 0.9, 2}, 5)
	out := q.Forward(x)
	want := []float32{0, 0, float32(math.Round(0.5*3)) / 3, 1, 1}
	for i := range want {
		if math.Abs(float64(out.Data[i]-want[i])) > 1e-6 {
			t.Fatalf("grid value %d: %v want %v", i, out.Data[i], want[i])
		}
	}
}

func TestActQuantizerBackwardMask(t *testing.T) {
	q := &ActQuantizer{Bits: 4}
	x := tensor.NewFrom([]float32{-0.5, 0.5, 1.5}, 3)
	g := tensor.NewFrom([]float32{1, 1, 1}, 3)
	dx := q.Backward(g, x)
	if dx.Data[0] != 0 || dx.Data[1] != 1 || dx.Data[2] != 0 {
		t.Fatalf("STE mask wrong: %v", dx.Data)
	}
}

func TestWeightQuantizerMatchesCodes(t *testing.T) {
	rng := tensor.NewRNG(11)
	w := tensor.New(40)
	rng.FillNormal(w, 0, 1)
	q := &WeightQuantizer{Bits: 4}
	fq := q.Forward(w)
	codes := WeightCodes(w, 4)
	deq := codes.Dequantize()
	if d := tensor.MaxAbsDiff(fq, deq); d > 1e-6 {
		t.Fatalf("fake-quant and integer codes disagree by %v", d)
	}
}

func TestQuantReLUActsAsClippedReLU(t *testing.T) {
	q := NewQuantReLU("q", 4)
	x := tensor.NewFrom([]float32{-1, 0.5, 3}, 1, 3)
	out := q.Forward(x, true)
	if out.Data[0] != 0 || out.Data[2] != 1 {
		t.Fatalf("QuantReLU out %v", out.Data)
	}
	g := tensor.NewFrom([]float32{2, 2, 2}, 1, 3)
	dx := q.Backward(g)
	if dx.Data[0] != 0 || dx.Data[1] != 2 || dx.Data[2] != 0 {
		t.Fatalf("QuantReLU grad %v", dx.Data)
	}
	if q.Params() != nil {
		t.Fatal("QuantReLU has no params")
	}
}

func TestStaticExecAccuracyOrdering(t *testing.T) {
	rng := tensor.NewRNG(13)
	conv := nn.NewConv2D("c", 3, 4, 3, 1, 1, true, rng)
	// Uniform weights avoid σ-clipping so the only error is grid width.
	rng.FillUniform(conv.Weight.W, -0.5, 0.5)
	x := tensor.New(1, 3, 8, 8)
	rng.FillUniform(x, 0, 1)
	ref := conv.Forward(x, false)

	var errs []float32
	for _, bits := range []int{2, 4, 8, 16} {
		conv.Exec = NewStaticExec(bits)
		got := conv.Forward(x, false)
		errs = append(errs, tensor.MeanAbsDiff(ref, got))
	}
	conv.Exec = nil
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1] {
			t.Fatalf("error must shrink with more bits: %v", errs)
		}
	}
	if errs[3] > 1e-3 {
		t.Fatalf("INT16 error too large: %v", errs[3])
	}
}

func TestStaticExecBiasPreserved(t *testing.T) {
	rng := tensor.NewRNG(14)
	conv := nn.NewConv2D("c", 1, 1, 1, 1, 0, true, rng)
	conv.Weight.W.Data[0] = 0 // conv contributes nothing
	conv.Bias.W.Data[0] = 1.25
	conv.Exec = NewStaticExec(8)
	x := tensor.New(1, 1, 2, 2)
	out := conv.Forward(x, false)
	for _, v := range out.Data {
		if v != 1.25 {
			t.Fatalf("bias lost through executor: %v", out.Data)
		}
	}
}

func TestStaticExecWeightCache(t *testing.T) {
	rng := tensor.NewRNG(15)
	conv := nn.NewConv2D("c", 1, 1, 3, 1, 1, false, rng)
	e := NewStaticExec(8)
	conv.Exec = e
	x := tensor.New(1, 1, 4, 4)
	rng.FillUniform(x, 0, 1)
	out1 := conv.Forward(x, false)
	// Mutate weights without invalidating: cached codes must still be used.
	old := conv.Weight.W.Data[0]
	conv.Weight.W.Data[0] = old + 100
	out2 := conv.Forward(x, false)
	if tensor.MaxAbsDiff(out1, out2) != 0 {
		t.Fatal("cache should have served stale codes")
	}
	e.InvalidateCache()
	out3 := conv.Forward(x, false)
	if tensor.MaxAbsDiff(out1, out3) == 0 {
		t.Fatal("InvalidateCache must requantize")
	}
}

// TestStaticExecBitExact pins both static paths, bit for bit, to the
// integer reference they implement: per-tensor weight scales through
// DequantAccum, per-channel scales through DequantAccumPerChannel.
func TestStaticExecBitExact(t *testing.T) {
	rng := tensor.NewRNG(18)
	layer := nn.NewConv2D("c", 3, 5, 3, 2, 1, false, rng)
	x := tensor.New(2, 3, 9, 9)
	rng.FillUniform(x, -0.2, 1.2) // some codes clamp at both ends
	w := layer.EffectiveWeight()
	same := func(name string, b int, got, want *tensor.Tensor) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s b=%d: output %d = %v, want %v", name, b, i, got.Data[i], want.Data[i])
			}
		}
	}
	for _, b := range []int{4, 8, 16} {
		qx := ActCodes(x, b)
		qw := WeightCodes(w, b)
		acc, g := ConvAccum(qx, qw, layer.Stride, layer.Pad)
		same("NewStaticExec", b, NewStaticExec(b).Conv(x, layer),
			DequantAccum(acc, qx.Scale*qw.Scale, x.Shape[0], g))

		qc, scales := WeightCodesPerChannel(w, b)
		accC, _ := ConvAccum(qx, qc, layer.Stride, layer.Pad)
		same("NewPerChannelExec", b, NewPerChannelExec(b).Conv(x, layer),
			DequantAccumPerChannel(accC, qx.Scale, scales, x.Shape[0], g))
	}
}

func TestProfilerAccumulates(t *testing.T) {
	rng := tensor.NewRNG(16)
	conv := nn.NewConv2D("c1", 1, 2, 3, 1, 1, false, rng)
	e := NewStaticExec(8, WithStaticProfiling())
	conv.Exec = e
	x := tensor.New(2, 1, 4, 4)
	conv.Forward(x, false)
	conv.Forward(x, false)
	ps := e.Profiles()
	if len(ps) != 1 {
		t.Fatalf("profiles = %d, want 1 (merged)", len(ps))
	}
	p := ps[0]
	if p.Batch != 4 {
		t.Fatalf("batch accumulation = %d, want 4", p.Batch)
	}
	if p.TotalOutputs != 4*2*4*4 {
		t.Fatalf("TotalOutputs = %d", p.TotalOutputs)
	}
	if p.TotalMACs != 4*int64(2*4*4)*9 {
		t.Fatalf("TotalMACs = %d", p.TotalMACs)
	}
	e.Reset()
	if len(e.Profiles()) != 0 {
		t.Fatal("Reset must clear profiles")
	}
}

func TestProfilerDisabledByDefault(t *testing.T) {
	rng := tensor.NewRNG(17)
	conv := nn.NewConv2D("c1", 1, 1, 3, 1, 1, false, rng)
	e := NewStaticExec(8)
	conv.Exec = e
	conv.Forward(tensor.New(1, 1, 4, 4), false)
	if len(e.Profiles()) != 0 {
		t.Fatal("profiler must be off unless enabled")
	}
}
