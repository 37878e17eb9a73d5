// Package telemetry is the observability layer of the repo: lock-free
// counters, gauges and fixed-bucket histograms in a global (but swappable)
// registry, plus scoped spans recorded into a ring buffer and exported as
// Chrome trace-event JSON (see span.go) and an optional debug HTTP surface
// (see http.go).
//
// The package is dependency-free (standard library only) and designed so
// that instrumentation can live permanently on hot paths:
//
//   - Telemetry is DISABLED by default. Counter.Add, Gauge.Set and
//     StartSpan/End first perform one atomic load of the process-wide
//     enable flag and branch out — a few nanoseconds, no stores, no
//     shared-cache-line traffic (priced per site by the benchmarks in
//     bench_test.go; the end-to-end cost of tracing is
//     trace.overhead_pct in bench/).
//   - Histogram.Observe records whether or not telemetry is enabled, so
//     the serving layer's latency histograms answer /v1/status with
//     collection off; every hot-path caller sits inside an Enabled()
//     check.
//   - When enabled, counters and gauges are single atomic RMW operations
//     and histograms are one atomic add per observation plus a CAS loop
//     for the running sum: no locks, no allocations.
//   - Handle lookup (GetCounter etc.) takes a registry mutex and may
//     allocate on first use of a name; instrumented packages either hoist
//     handles into package variables or gate dynamic-name lookups behind
//     Enabled().
//
// Handles bind to the registry that was Default() at creation time;
// swapping the default registry (SetDefault) affects subsequent lookups
// and Snapshot/trace readers, which is what tests need for isolation.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide instrumentation switch. It is deliberately
// global rather than per-registry so the disabled fast path is a single
// atomic load with no pointer chase.
var enabled atomic.Bool

// Enable turns instrumentation on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns instrumentation off process-wide. Accumulated values are
// retained; they simply stop moving.
func Disable() { enabled.Store(false) }

// Enabled reports whether instrumentation is on. Instrumented code uses it
// to skip dynamic-name lookups and other setup that would allocate.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n when telemetry is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one when telemetry is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically stored float64 instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v when telemetry is enabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations v
// with bounds[i-1] < v <= bounds[i]; the final bucket (index len(bounds))
// counts v > bounds[len(bounds)-1]. Boundaries are inclusive upper bounds,
// so an observation exactly on a boundary lands in the lower bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram builds a histogram over a copy of the (sorted, strictly
// increasing) boundaries.
func newHistogram(bounds []float64) *Histogram {
	cp := append([]float64(nil), bounds...)
	sort.Float64s(cp)
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
}

// Observe records one observation whether or not telemetry is enabled:
// the serving layer's latency histograms must answer /v1/status with
// collection off. Lock-free: one atomic add for the bucket and count, a
// CAS loop for the sum. Hot kernels call it only inside an Enabled()
// check, so the disabled fast path stays one atomic load.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v (inclusive upper bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns a copy of the per-bucket counts (len(bounds)+1).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns a copy of the bucket boundaries.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// Snapshot copies the histogram's current state (for Quantile and
// exposition).
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:  h.Count(),
		Sum:    h.Sum(),
		Bounds: h.Bounds(),
		Counts: h.BucketCounts(),
	}
}

// ExpBuckets returns n boundaries start, start*factor, start*factor², ... —
// the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n boundaries start, start+step, ...
func LinearBuckets(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// Registry holds named instruments and the span ring buffer. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    *spanRing

	// peers holds metrics snapshots gathered from other fleet ranks
	// (see prom.go), rendered by the Prometheus exposition.
	peersMu sync.Mutex
	peers   map[int]PeerSnap
}

// NewRegistry builds an empty registry with the default span-ring capacity.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    newSpanRing(defaultSpanCap),
	}
}

var defaultReg atomic.Pointer[Registry]

func init() { defaultReg.Store(NewRegistry()) }

// Default returns the current global registry.
func Default() *Registry { return defaultReg.Load() }

// SetDefault swaps the global registry and returns the previous one.
// Instrument handles created earlier remain bound to the old registry;
// tests use this to get an isolated view for Snapshot and trace export.
func SetDefault(r *Registry) *Registry {
	return defaultReg.Swap(r)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// boundaries on first use. Later calls return the existing histogram
// regardless of the boundaries passed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GetCounter returns the named counter from the default registry.
func GetCounter(name string) *Counter { return Default().Counter(name) }

// GetGauge returns the named gauge from the default registry.
func GetGauge(name string) *Gauge { return Default().Gauge(name) }

// GetHistogram returns the named histogram from the default registry.
func GetHistogram(name string, bounds []float64) *Histogram {
	return Default().Histogram(name, bounds)
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution from the bucket counts, with linear interpolation inside
// the bucket the target rank lands in — the same estimate Prometheus's
// histogram_quantile computes server-side. The first bucket
// interpolates from 0 (latencies are non-negative); ranks landing in
// the overflow bucket clamp to the highest finite boundary. Returns 0
// when nothing has been observed.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Bounds) == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := int64(0)
	for i, bound := range s.Bounds {
		prev := cum
		cum += s.Counts[i]
		if float64(cum) >= target {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			if s.Counts[i] == 0 {
				return bound
			}
			frac := (target - float64(prev)) / float64(s.Counts[i])
			return lower + (bound-lower)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// SpanStats summarizes the span ring buffer.
type SpanStats struct {
	Recorded int64 `json:"recorded"`
	Dropped  int64 `json:"dropped"`
	Capacity int   `json:"capacity"`
}

// Snap is a point-in-time copy of every instrument in a registry,
// json-serializable for the debug endpoint and for tests.
type Snap struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      SpanStats                    `json:"spans"`
}

// Snapshot copies the registry's current state. Concurrent writers keep
// writing during the copy; each individual value is read atomically.
func (r *Registry) Snapshot() Snap {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snap{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
		Spans:      r.spans.stats(),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// Snapshot copies the default registry's state.
func Snapshot() Snap { return Default().Snapshot() }
