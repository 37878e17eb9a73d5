package telemetry

import "testing"

// The disabled path is the contract that lets instrumentation live on hot
// kernels permanently: one atomic load and a branch. These benchmarks
// price one site; the end-to-end cost of tracing a whole workload is
// trace.overhead_pct in bench/ (bash bench/run.sh --trace 1).

func BenchmarkCounterAddDisabled(b *testing.B) {
	Disable()
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("bench")
		sp.End()
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	Enable()
	defer Disable()
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	Enable()
	defer Disable()
	h := NewRegistry().Histogram("bench", ExpBuckets(1, 10, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	Enable()
	defer Disable()
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("bench")
		sp.End()
	}
}
