package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Pool is a fixed-size pool of long-lived worker goroutines shared by the
// compute kernels (GEMM, the sparse ODQ executor, batch fan-out). One
// process-wide pool sized by runtime.NumCPU serves every kernel, so the
// parallelism of nested calls (a sparse conv whose predictor GEMM also
// fans out) is bounded by the machine, not multiplied by it.
//
// ParallelN is deadlock-free under nesting because the caller always
// participates in the work and waits only for tasks, never for a queued
// helper: if every pooled worker is busy, the calling goroutine drains its
// own task set inline, and a helper still queued when the tasks have run
// out returns at once whenever a worker reaches it.
type Pool struct {
	queue chan *fanout
	size  int
}

// NewPool builds a pool with the given number of workers (minimum 1).
// A pool of size 1 spawns no goroutines and runs everything inline.
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size}
	if size > 1 {
		p.queue = make(chan *fanout, 8*size)
		for i := 0; i < size; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	for f := range p.queue {
		f.drain()
	}
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the shared process-wide pool, sized by
// runtime.NumCPU and created on first use.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewPool(runtime.NumCPU())
	})
	return defaultPool
}

// ParallelN runs fn(0) .. fn(n-1), blocking until all complete. Tasks are
// distributed dynamically (an atomic cursor), so uneven task costs
// balance across workers.
func (p *Pool) ParallelN(n int, fn func(i int)) {
	p.ParallelLimited(p.size, n, fn)
}

// ParallelLimited is ParallelN with concurrency capped at limit (<=0 or
// >size means the full pool). The calling goroutine always executes tasks
// itself, then waits for the tasks helpers have claimed but never for a
// helper still in the queue, which keeps nested calls deadlock-free.
func (p *Pool) ParallelLimited(limit, n int, fn func(i int)) {
	if limit <= 0 || limit > p.size {
		limit = p.size
	}
	if telemetry.Enabled() {
		mPoolCalls.Inc()
		mPoolTasks.Add(int64(n))
		mPoolFanout.Observe(float64(n))
	}
	if n <= 1 || limit <= 1 || p.queue == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f := &fanout{fn: fn, n: int64(n)}
	f.done.Add(n)
queue:
	for h := min(limit, n) - 1; h > 0; h-- {
		select {
		case p.queue <- f:
		default:
			// Queue saturated (deeply nested parallelism): the caller
			// drains what the h helpers not queued would have taken.
			mPoolSaturated.Add(int64(h))
			break queue
		}
	}
	f.drain()
	f.done.Wait()
}

// ParallelRange cuts [0, n) into at most Size() contiguous chunks of at
// least grain items each and runs fn(lo, hi) once per chunk, blocking
// until all complete. A single chunk runs inline on the caller.
func (p *Pool) ParallelRange(n, grain int, fn func(lo, hi int)) {
	chunks := min(n/max(grain, 1), p.size)
	if chunks <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	p.ParallelN(chunks, func(i int) { fn(i*n/chunks, (i+1)*n/chunks) })
}

// ElementwiseGrain is the fewest elements worth one ParallelRange chunk
// for loops that cost a few nanoseconds per element (batch-norm affine,
// activation quantization, residual add). On a 2-CPU host,
// BenchmarkParallelRange's split begins to beat the inline pass at about
// two grains; below that, waking a pooled worker costs more than the
// chunk it takes over.
const ElementwiseGrain = 4096

// fanout is one ParallelLimited call: n tasks behind an atomic cursor,
// drained by the caller and by the queued helpers that reach it. The
// caller waits for the n tasks to finish, not for the helpers: a helper
// no worker reached before the cursor ran out finds no task to claim and
// returns at once, so the caller never waits on a helper still in the
// queue (every worker may be a caller blocked in a nested fan-out).
type fanout struct {
	fn   func(i int)
	n    int64
	next atomic.Int64
	done sync.WaitGroup // counts unfinished tasks
}

func (f *fanout) drain() {
	for {
		i := f.next.Add(1) - 1
		if i >= f.n {
			return
		}
		f.fn(int(i))
		f.done.Done()
	}
}

// ---- Scratch buffer pools ----
//
// The quantized conv hot path needs scratch of several element types:
// int32 codes and im2col matrices, int64 accumulators, float32 im2col
// matrices, bitplane words, activation bytes, output codes and
// sensitivity masks. Pooling them takes steady-state inference to
// near-zero allocation. Buffers come back DIRTY: callers must fully
// overwrite (im2col and GemmInt do).

// scratchPool recycles buffers of one element type. sync.Pool holds
// interface values, so a buffer travels inside a *[]T; the emptied
// wrappers go round a second pool, so neither Get nor Put allocates in
// steady state.
type scratchPool[T any] struct {
	bufs, wrappers sync.Pool
}

var (
	i32Pool  scratchPool[int32]
	i64Pool  scratchPool[int64]
	f32Pool  scratchPool[float32]
	u64Pool  scratchPool[uint64]
	u8Pool   scratchPool[uint8]
	boolPool scratchPool[bool]
)

// get returns a length-n buffer with arbitrary contents, allocating when
// the pooled buffer is missing or too small.
func (p *scratchPool[T]) get(n int) []T {
	if v := p.bufs.Get(); v != nil {
		w := v.(*[]T)
		s := *w
		*w = nil
		p.wrappers.Put(w)
		if cap(s) >= n {
			mScratchHits.Inc()
			return s[:n]
		}
	}
	mScratchMisses.Inc()
	return make([]T, n)
}

// put recycles a buffer obtained from get on the same pool.
func (p *scratchPool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	w, _ := p.wrappers.Get().(*[]T)
	if w == nil {
		w = new([]T)
	}
	*w = s[:cap(s)]
	p.bufs.Put(w)
}

// GetInt32 returns a length-n int32 scratch buffer with arbitrary contents.
func GetInt32(n int) []int32 { return i32Pool.get(n) }

// PutInt32 recycles a buffer obtained from GetInt32.
func PutInt32(s []int32) { i32Pool.put(s) }

// GetInt64 returns a length-n int64 scratch buffer with arbitrary contents.
func GetInt64(n int) []int64 { return i64Pool.get(n) }

// PutInt64 recycles a buffer obtained from GetInt64.
func PutInt64(s []int64) { i64Pool.put(s) }

// GetFloat32 returns a length-n float32 scratch buffer with arbitrary
// contents.
func GetFloat32(n int) []float32 { return f32Pool.get(n) }

// PutFloat32 recycles a buffer obtained from GetFloat32.
func PutFloat32(s []float32) { f32Pool.put(s) }

// GetUint64 returns a length-n uint64 scratch buffer with arbitrary
// contents (bitplane word storage; the bitplane packers fully overwrite).
func GetUint64(n int) []uint64 { return u64Pool.get(n) }

// PutUint64 recycles a buffer obtained from GetUint64.
func PutUint64(s []uint64) { u64Pool.put(s) }

// GetUint8 returns a length-n uint8 scratch buffer with arbitrary
// contents (activation bytes before a bitplane gather, per-element
// activation codes before nibble packing).
func GetUint8(n int) []uint8 { return u8Pool.get(n) }

// PutUint8 recycles a buffer obtained from GetUint8.
func PutUint8(s []uint8) { u8Pool.put(s) }

// GetBool returns a length-n bool scratch buffer with arbitrary contents
// (per-output sensitivity masks).
func GetBool(n int) []bool { return boolPool.get(n) }

// PutBool recycles a buffer obtained from GetBool.
func PutBool(s []bool) { boolPool.put(s) }
