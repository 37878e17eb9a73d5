package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// The sparse mask-driven executor must be bit-identical to the dense
// compute-then-select reference for every shape and threshold: sensitive
// outputs carry the full INT-k result, insensitive ones the predictor
// term, with identical float rounding in both paths.

func TestSparseDenseParityRandomized(t *testing.T) {
	shapes := []struct {
		name           string
		inC, outC      int
		h, w           int
		k, stride, pad int
		batch          int
	}{
		{"square", 3, 4, 10, 10, 3, 1, 1, 1},
		{"stride2", 3, 5, 9, 7, 3, 2, 1, 2},
		{"no-pad", 2, 3, 8, 8, 3, 1, 0, 1},
		{"1x1", 4, 4, 5, 5, 1, 1, 0, 1},
		{"odd-channels", 5, 7, 6, 6, 3, 1, 1, 3},
		{"5x5-kernel", 2, 3, 12, 12, 5, 1, 2, 1},
		{"stride3-pad2", 3, 6, 11, 13, 3, 3, 2, 2},
		// Channel counts whose per-pixel bitplane chunks fill one word,
		// straddle a word boundary, and span three words.
		{"64-channels", 64, 3, 5, 5, 3, 1, 1, 2},
		{"65-channels", 65, 3, 6, 5, 3, 2, 1, 3},
		{"130-channels", 130, 2, 5, 5, 3, 1, 2, 1},
		// Batch at least as large as any pool: the per-sample fan-out.
		{"batch17", 3, 4, 6, 6, 3, 1, 1, 17},
	}
	thresholds := []float32{-1, 0, 0.25, 0.5, 1.0, 1e9}
	seed := int64(100)
	for _, sh := range shapes {
		for _, th := range thresholds {
			seed++
			rng := tensor.NewRNG(seed)
			conv := nn.NewConv2D("c", sh.inC, sh.outC, sh.k, sh.stride, sh.pad, false, rng)
			x := tensor.New(sh.batch, sh.inC, sh.h, sh.w)
			rng.FillUniform(x, 0, 1)

			conv.Exec = NewExec(th)
			sparse := conv.Forward(x, false)
			conv.Exec = NewExec(th, WithDenseReference())
			dense := conv.Forward(x, false)
			conv.Exec = nil

			if len(sparse.Data) != len(dense.Data) {
				t.Fatalf("%s th=%v: length %d vs %d", sh.name, th, len(sparse.Data), len(dense.Data))
			}
			for i := range sparse.Data {
				if sparse.Data[i] != dense.Data[i] {
					t.Fatalf("%s th=%v: output %d differs: sparse %v dense %v",
						sh.name, th, i, sparse.Data[i], dense.Data[i])
				}
			}
		}
	}
}

// fuzzThresholds are the thresholds the executor fuzzers draw from:
// everything sensitive (−1 and 0), cuts on either side of the mean, and
// nothing sensitive (1e9).
var fuzzThresholds = []float32{-1, 0, 0.25, 0.5, 1.5, 1e9}

// FuzzSparseEqualsDense holds the exactness contract over drawn shapes,
// batches and thresholds: on the paper's 4/2 split, the one the bitplane
// executor runs, its outputs and masks equal the int-GEMM
// compute-then-select oracle's, bit for bit. Every other split runs the
// oracle itself. Batches reach 17, at or above the shared pool's size on
// hosts of up to 17 CPUs, so the per-sample fan-out runs as well as the
// per-output-channel one. outlier concentrates the input on a few
// full-scale activations and blows one weight up 32×, which starves the
// other codes and stresses the high/low split and the integer cut.
func FuzzSparseEqualsDense(f *testing.F) {
	// Arguments are (seed, inC-1, outC-1, H-1, W-1, K-1, stride-1, pad,
	// batch-1, threshold index, outlier).
	for _, s := range []struct {
		c, oc, h, w, k, stride, pad, batch, th uint8
		outlier                                bool
	}{
		{3, 5, 9, 9, 2, 0, 1, 1, 3, false},
		{4, 6, 7, 8, 2, 1, 1, 2, 2, false},  // stride 2
		{2, 3, 6, 6, 2, 0, 1, 0, 4, false},  // 1.5 × the mean
		{2, 3, 6, 5, 2, 1, 0, 2, 3, true},   // outliers, no padding
		{3, 4, 8, 8, 2, 0, 1, 1, 2, false},  // 0.25 × the mean
		{64, 2, 5, 4, 2, 1, 1, 2, 4, false}, // 65 channels
		{64, 2, 4, 4, 0, 0, 0, 0, 3, true},  // 65 channels, 1×1
		{2, 3, 5, 5, 2, 0, 1, 16, 3, false}, // batch 17: per-sample fan-out
		{5, 4, 11, 11, 4, 2, 2, 1, 1, true}, // 5×5, stride 3
		{1, 2, 4, 4, 2, 0, 1, 0, 5, false},  // nothing sensitive
		{1, 2, 4, 4, 2, 0, 1, 0, 0, true},   // everything sensitive
	} {
		f.Add(int64(s.c)*31+int64(s.th), s.c, s.oc, s.h, s.w, s.k, s.stride, s.pad, s.batch, s.th, s.outlier)
	}
	f.Fuzz(func(t *testing.T, seed int64, c, oc, h, w, k, stride, pad, batch, thB uint8, outlier bool) {
		fc := drawConvCase(seed, c, oc, h, w, k, stride, pad, batch, 4, 2, thB, outlier)
		sparse, sp := fc.run(fc.x)
		dense, dp := fc.run(fc.x, WithDenseReference())
		if len(sparse.Data) != len(dense.Data) {
			t.Fatalf("%s: output length %d vs %d", fc, len(sparse.Data), len(dense.Data))
		}
		for i := range sparse.Data {
			if math.Float32bits(sparse.Data[i]) != math.Float32bits(dense.Data[i]) {
				t.Fatalf("%s: output %d: sparse %v dense %v", fc, i, sparse.Data[i], dense.Data[i])
			}
		}
		if sp.SensitiveOutputs != dp.SensitiveOutputs {
			t.Fatalf("%s: sensitive outputs %d vs %d", fc, sp.SensitiveOutputs, dp.SensitiveOutputs)
		}
		for i := range sp.Mask {
			if sp.Mask[i] != dp.Mask[i] {
				t.Fatalf("%s: mask bit %d: sparse %v dense %v", fc, i, sp.Mask[i], dp.Mask[i])
			}
		}
	})
}

// convCase is one drawn fuzz case: a conv layer, a batch of inputs and
// the executor settings.
type convCase struct {
	conv           *nn.Conv2D
	x              *tensor.Tensor
	bits, predBits int
	th             float32
	outlier        bool
}

// drawSplit turns two fuzz arguments into a bits/predBits split: the
// paper's 4/2, which the bitplane executor runs, for an even bitsB, and
// for an odd one bits 2–16 with predBits 1..bits-1, which (but for 4/2)
// the int-GEMM path runs.
func drawSplit(bitsB, predB uint8) (bits, predBits int) {
	if bitsB%2 == 0 {
		return 4, 2
	}
	bits = 2 + int(bitsB/2)%15
	return bits, 1 + int(predB)%(bits-1)
}

// drawConvCase turns the fuzz arguments into a case: C 1–72, OutC 1–8,
// H and W 1–12 (at most 4 once a batch passes 2^14 input values), K 1–5,
// stride 1–3, pad 0–2, batch 1–17, the given bits/predBits split, a
// threshold from fuzzThresholds, and optionally outliers: the input
// concentrated on a few full-scale activations and one weight blown up
// 32×, which starves the other codes and stresses the high/low split and
// the integer cut.
func drawConvCase(seed int64, c, oc, h, w, k, stride, pad, batch uint8, bits, predBits int, thB uint8, outlier bool) *convCase {
	inC, outC := 1+int(c)%72, 1+int(oc)%8
	kk, st, pd := 1+int(k)%5, 1+int(stride)%3, int(pad)%3
	ih, iw := 1+int(h)%12, 1+int(w)%12
	n := 1 + int(batch)%17
	if inC*ih*iw*n > 1<<14 {
		ih, iw = min(ih, 4), min(iw, 4)
	}
	ih, iw = max(ih, kk-2*pd), max(iw, kk-2*pd)
	fc := &convCase{bits: bits, predBits: predBits,
		th: fuzzThresholds[int(thB)%len(fuzzThresholds)], outlier: outlier}

	rng := tensor.NewRNG(seed)
	fc.conv = nn.NewConv2D("c", inC, outC, kk, st, pd, false, rng)
	fc.x = tensor.New(n, inC, ih, iw)
	rng.FillUniform(fc.x, 0, 1)
	if outlier {
		for i := range fc.x.Data {
			if i%13 == 0 {
				fc.x.Data[i] = 1
			} else {
				fc.x.Data[i] *= 0.05
			}
		}
		fc.conv.Weight.W.Data[rng.Intn(fc.conv.Weight.W.Len())] *= 32
	}
	return fc
}

// run convolves x through a fresh mask-recording executor with the
// case's settings and returns the output and the layer's profile.
func (fc *convCase) run(x *tensor.Tensor, opts ...Option) (*tensor.Tensor, *quant.LayerProfile) {
	e := NewExec(fc.th, append(opts, WithBits(fc.bits), WithPredBits(fc.predBits), WithMaskRecording())...)
	return e.Conv(x, fc.conv), e.Profiles()[0]
}

func (fc *convCase) String() string {
	l := fc.conv
	return fmt.Sprintf("C=%d outC=%d %dx%d K=%d s=%d pad=%d N=%d bits=%d/%d th=%v outlier=%v",
		l.InC, l.OutC, fc.x.Shape[2], fc.x.Shape[3], l.K, l.Stride, l.Pad, fc.x.Shape[0],
		fc.bits, fc.predBits, fc.th, fc.outlier)
}

// FuzzBatchEqualsSingle holds batch invariance over drawn shapes, batches,
// thresholds and splits (drawSplit: 4/2 on at least half the cases, so
// the bitplane executor gets most of the draws, any split on the rest):
// every sample's rows of a batched Conv — outputs and sensitivity mask —
// equal that sample's batch-1 call, bit for bit. Batches of at least the
// pool's size run one task per sample, a batch-1 call fans out over
// output channels, so both fan-outs meet.
func FuzzBatchEqualsSingle(f *testing.F) {
	// Arguments are (seed, inC-1, outC-1, H-1, W-1, K-1, stride-1, pad,
	// batch-1, bitsB, predB, threshold index, outlier).
	for _, s := range []struct {
		c, oc, h, w, k, stride, pad, batch, bits, pred, th uint8
		outlier                                            bool
	}{
		{7, 7, 4, 4, 2, 0, 1, 9, 0, 0, 4, false},   // 4/2, 25 positions (not a multiple of 8)
		{7, 5, 9, 9, 2, 1, 1, 16, 0, 0, 3, true},   // 4/2, stride 2, batch 17, outliers
		{3, 3, 6, 6, 2, 0, 1, 4, 0, 0, 5, false},   // nothing sensitive
		{3, 3, 6, 6, 2, 0, 1, 4, 0, 0, 0, false},   // everything sensitive
		{4, 6, 7, 8, 2, 1, 1, 5, 13, 3, 2, false},  // 8/4
		{2, 3, 6, 5, 2, 1, 0, 2, 29, 14, 3, true},  // 16/15
		{64, 2, 4, 4, 0, 0, 0, 3, 0, 0, 3, false},  // 65 channels, 1×1
		{5, 4, 11, 11, 4, 2, 2, 1, 21, 5, 1, true}, // 5×5, stride 3, 12/6
	} {
		f.Add(int64(s.c)*17+int64(s.batch), s.c, s.oc, s.h, s.w, s.k, s.stride, s.pad, s.batch, s.bits, s.pred, s.th, s.outlier)
	}
	f.Fuzz(func(t *testing.T, seed int64, c, oc, h, w, k, stride, pad, batch, bitsB, predB, thB uint8, outlier bool) {
		bits, predBits := drawSplit(bitsB, predB)
		fc := drawConvCase(seed, c, oc, h, w, k, stride, pad, batch, bits, predBits, thB, outlier)
		batched, bp := fc.run(fc.x)
		n := fc.x.Shape[0]
		in, out := len(fc.x.Data)/n, len(batched.Data)/n
		for s := 0; s < n; s++ {
			xs := tensor.New(1, fc.x.Shape[1], fc.x.Shape[2], fc.x.Shape[3])
			copy(xs.Data, fc.x.Data[s*in:(s+1)*in])
			single, sp := fc.run(xs)
			for i, v := range single.Data {
				if math.Float32bits(v) != math.Float32bits(batched.Data[s*out+i]) {
					t.Fatalf("%s: sample %d output %d: alone %v batched %v", fc, s, i, v, batched.Data[s*out+i])
				}
			}
			for i, m := range sp.Mask {
				if m != bp.Mask[s*out+i] {
					t.Fatalf("%s: sample %d mask bit %d: alone %v batched %v", fc, s, i, m, bp.Mask[s*out+i])
				}
			}
		}
	})
}

func TestSparseMatchesStaticWhenAllSensitive(t *testing.T) {
	// End-to-end cross-check against an independent implementation: at
	// threshold -1 the sparse path must reproduce the full INT4 conv.
	rng := tensor.NewRNG(42)
	conv := nn.NewConv2D("c", 3, 6, 3, 2, 1, false, rng)
	x := tensor.New(2, 3, 9, 9)
	rng.FillUniform(x, 0, 1)
	conv.Exec = NewExec(-1)
	got := conv.Forward(x, false)
	conv.Exec = quant.NewStaticExec(4)
	want := conv.Forward(x, false)
	conv.Exec = nil
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("all-sensitive sparse ODQ deviates from static INT4 by %v", d)
	}
}

// TestConcurrentConvSharedExec drives one Exec from many goroutines (run
// under -race via make verify). It exercises the weight cache, profiler
// and scratch pools concurrently, interleaved with cache invalidation.
func TestConcurrentConvSharedExec(t *testing.T) {
	rng := tensor.NewRNG(43)
	conv := nn.NewConv2D("c", 3, 4, 3, 1, 1, false, rng)
	x := tensor.New(1, 3, 10, 10)
	rng.FillUniform(x, 0, 1)

	e := NewExec(0.4, WithMaskRecording())
	want := e.Conv(x, conv)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				got := e.Conv(x, conv)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("worker %d iter %d: output %d differs", w, iter, i)
						return
					}
				}
			}
		}(w)
	}
	// Concurrent invalidation must not corrupt results (weights are not
	// mutated here, so outputs stay identical regardless of interleaving).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			e.InvalidateCache()
		}
	}()
	wg.Wait()
}

// TestInvalidateCacheGeneration checks, sequentially, that InvalidateCache
// after a weight mutation makes the next Conv requantize the new weights,
// and that the rebuilt codes then stay cached. The straddling case (a
// build running across the invalidation) is pinned deterministically in
// quant.TestWeightCacheStraddlingBuildNotStored.
func TestInvalidateCacheGeneration(t *testing.T) {
	rng := tensor.NewRNG(44)
	conv := nn.NewConv2D("c", 1, 1, 3, 1, 1, false, rng)
	x := tensor.New(1, 1, 6, 6)
	rng.FillUniform(x, 0, 1)

	e := NewExec(-1)
	out1 := e.Conv(x, conv)
	conv.Weight.W.Scale(2)
	e.InvalidateCache()
	out2 := e.Conv(x, conv)
	if tensor.MaxAbsDiff(out1, out2) == 0 {
		t.Fatal("invalidation must pick up the rescaled weights")
	}
	// A second call must agree with the post-invalidation result (cache
	// now holds the fresh codes).
	out3 := e.Conv(x, conv)
	if tensor.MaxAbsDiff(out2, out3) != 0 {
		t.Fatal("post-invalidation cache must be stable")
	}
}
