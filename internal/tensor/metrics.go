package tensor

import "repro/internal/telemetry"

// Telemetry handles for the kernel layer. These sit on genuinely hot
// paths (every GEMM call, every scratch-buffer checkout, every pool
// fan-out), so they are hoisted package variables: with telemetry
// disabled each call site costs one atomic load and a branch.
var (
	// Microkernel dispatch: which code path each GEMM call took.
	mGemmF32AVX2   = telemetry.GetCounter("tensor.gemm.f32.avx2")
	mGemmF32Scalar = telemetry.GetCounter("tensor.gemm.f32.scalar")
	mGemmIntAVX2   = telemetry.GetCounter("tensor.gemm.int.avx2")
	mGemmIntScalar = telemetry.GetCounter("tensor.gemm.int.scalar")

	// Row-block fan-out width chosen by the blocked cores (1 = serial).
	mGemmRowBlocks = telemetry.GetHistogram("tensor.gemm.row_blocks",
		telemetry.ExpBuckets(1, 2, 8)) // 1,2,4,...,128

	// Scratch-pool checkout outcomes: a hit reuses a pooled buffer of
	// the request's size class, a miss allocates the class capacity.
	mScratchHits   = telemetry.GetCounter("tensor.scratch.hits")
	mScratchMisses = telemetry.GetCounter("tensor.scratch.misses")

	// Worker-pool utilization: fan-out calls, tasks distributed, the
	// per-call task count, and helpers not queued because the queue was
	// full (the caller drains their share inline).
	mPoolCalls     = telemetry.GetCounter("tensor.pool.parallel_calls")
	mPoolTasks     = telemetry.GetCounter("tensor.pool.tasks")
	mPoolFanout    = telemetry.GetHistogram("tensor.pool.fanout", telemetry.ExpBuckets(1, 2, 10))
	mPoolSaturated = telemetry.GetCounter("tensor.pool.queue_saturated")
)
