package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks. xs is not modified; it returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the spread between runs is judged. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// allocsPerCall returns the heap allocations and MB allocated per call of
// fn, averaged over n calls.
func allocsPerCall(n int, fn func()) (allocs, mb float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / (1 << 20)
}

// heapPeak tracks the highest live heap — the bytes each garbage
// collection found reachable — over a phase, sampling from a goroutine
// every few milliseconds without stopping the world. Peak in-use heap
// would also count garbage awaiting collection, which depends on when
// collections happen to run and swings between runs; the heap limit the
// collector paces against is a fixed multiple of this value.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

// startHeapPeak collects garbage first, so that the phase starts from its
// own live heap and not from the one fixture training or an earlier
// workload left behind. It collects twice: the first collection only
// moves the scratch pools' buffers to their victim caches.
func startHeapPeak() *heapPeak {
	runtime.GC()
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
