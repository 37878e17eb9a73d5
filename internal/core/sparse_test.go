package core

import (
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

func TestSparseSerialParallelParity(t *testing.T) {
	rng := tensor.NewRNG(41)
	conv := nn.NewConv2D("c", 4, 8, 3, 1, 1, false, rng)
	x := tensor.New(2, 4, 16, 16)
	rng.FillUniform(x, 0, 1)

	conv.Exec = NewExec(0.4, WithWorkers(1))
	serial := conv.Forward(x, false)
	conv.Exec = NewExec(0.4)
	parallel := conv.Forward(x, false)
	conv.Exec = nil
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("output %d differs between serial and parallel: %v vs %v",
				i, serial.Data[i], parallel.Data[i])
		}
	}
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

// TestInvalidateCacheGeneration pins the bugfix: a weight-code computation
// that straddles InvalidateCache must not re-populate the cache with codes
// from the stale weights.
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
