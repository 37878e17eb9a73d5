package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestScratchPoolsSteadyStateNoAllocs checks that once a buffer of each
// element type is pooled, a Get/Put cycle allocates nothing: neither the
// buffer nor the wrapper sync.Pool carries it in.
func TestScratchPoolsSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n = 1000
	cycles := map[string]func(){
		"int32":   func() { PutInt32(GetInt32(n)) },
		"int64":   func() { PutInt64(GetInt64(n)) },
		"float32": func() { PutFloat32(GetFloat32(n)) },
		"uint64":  func() { PutUint64(GetUint64(n)) },
		"uint8":   func() { PutUint8(GetUint8(n)) },
		"bool":    func() { PutBool(GetBool(n)) },
	}
	for name, cycle := range cycles {
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("%s: %v allocs per Get/Put cycle, want 0", name, a)
		}
	}
}

// TestPoolNestedFanOutNoDeadlock runs two callers that each nest a
// fan-out inside every task of another, on a two-worker pool. Both workers
// can then sit in a nested call's wait while the helpers those calls
// queued have not started; the caller must not wait for such helpers.
func TestPoolNestedFanOutNoDeadlock(t *testing.T) {
	p := NewPool(2)
	var sink atomic.Int64
	work := func(i int) {
		s := int64(i)
		for k := 0; k < 200; k++ {
			s = s*31 + int64(k)
		}
		sink.Add(s)
	}
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < 2000; it++ {
					p.ParallelN(2, func(int) { p.ParallelN(2, work) })
				}
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ParallelN did not finish within 30 s: a caller is waiting on a helper no worker has started")
	}
}

// TestParallelRangeChunks checks that ParallelRange covers [0, n) exactly
// once, in at most Size() contiguous chunks of at least grain items each.
func TestParallelRangeChunks(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5} {
		p := NewPool(size)
		for _, n := range []int{0, 1, 7, 100, 4095, 4096, 8191, 8192, 12289} {
			for _, grain := range []int{0, 1, 3, 100, ElementwiseGrain} {
				var mu sync.Mutex
				var chunks [][2]int
				seen := make([]int32, n)
				p.ParallelRange(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
					mu.Lock()
					chunks = append(chunks, [2]int{lo, hi})
					mu.Unlock()
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("size %d n %d grain %d: index %d visited %d times", size, n, grain, i, c)
					}
				}
				if len(chunks) > size {
					t.Fatalf("size %d n %d grain %d: %d chunks", size, n, grain, len(chunks))
				}
				for _, c := range chunks {
					if len(chunks) > 1 && c[1]-c[0] < grain {
						t.Fatalf("size %d n %d grain %d: chunk %v below grain", size, n, grain, c)
					}
				}
			}
		}
	}
}

// BenchmarkParallelRange times two elementwise passes over n floats, a
// batch-norm-style affine and an activation-style clamp-and-snap, inline
// ("serial") and cut into one chunk per worker of the default pool
// ("split"). The smallest n at which split wins, divided by the pool
// size, is the per-chunk grain ElementwiseGrain is set from.
func BenchmarkParallelRange(b *testing.B) {
	p := DefaultPool()
	for _, n := range []int{2048, 4096, 8192, 16384, 32768, 131072} {
		src := make([]float32, n)
		dst := make([]float32, n)
		for i := range src {
			src[i] = float32(i%97)*0.02 - 0.5
		}
		bodies := []struct {
			name string
			fn   func(lo, hi int)
		}{
			{"affine", func(lo, hi int) {
				for i, v := range src[lo:hi] {
					dst[lo+i] = v*1.5 + 0.25
				}
			}},
			{"snap", func(lo, hi int) {
				for i, v := range src[lo:hi] {
					v /= 1.5
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					dst[lo+i] = float32(int32(float64(v*15)+0.5)) / 15
				}
			}},
		}
		for _, body := range bodies {
			for _, mode := range []struct {
				name  string
				grain int
			}{{"serial", n + 1}, {"split", 1}} {
				b.Run(fmt.Sprintf("%s/n%d/%s", body.name, n, mode.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						p.ParallelRange(n, mode.grain, body.fn)
					}
				})
			}
		}
	}
}
