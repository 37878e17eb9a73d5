package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs f with telemetry enabled, restoring the prior state.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := Enabled()
	Enable()
	defer func() {
		if !prev {
			Disable()
		}
	}()
	f()
}

// withRegistry swaps in a fresh default registry for the test.
func withRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	prev := SetDefault(r)
	t.Cleanup(func() { SetDefault(prev) })
	return r
}

func TestCounterDisabledIsInert(t *testing.T) {
	Disable()
	r := withRegistry(t)
	c := r.Counter("c")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter moved: %d", got)
	}
	g := r.Gauge("g")
	g.Set(3.5)
	if got := g.Value(); got != 0 {
		t.Fatalf("disabled gauge moved: %v", got)
	}
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(1.5)
	if h.Count() != 0 {
		t.Fatalf("disabled histogram moved: %d", h.Count())
	}
	if sp := r.StartSpan("s"); sp.ring != nil {
		t.Fatal("disabled StartSpan returned a live span")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := withRegistry(t)
	withEnabled(t, func() {
		c := r.Counter("requests")
		c.Add(3)
		c.Inc()
		if got := c.Value(); got != 4 {
			t.Fatalf("counter = %d, want 4", got)
		}
		if r.Counter("requests") != c {
			t.Fatal("Counter not idempotent per name")
		}
		g := r.Gauge("ratio")
		g.Set(0.25)
		if got := g.Value(); got != 0.25 {
			t.Fatalf("gauge = %v, want 0.25", got)
		}
		// Nil handles are safe no-ops.
		var nc *Counter
		var ng *Gauge
		var nh *Histogram
		nc.Add(1)
		ng.Set(1)
		nh.Observe(1)
		if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 || nh.Sum() != 0 {
			t.Fatal("nil handles not inert")
		}
	})
}

// TestHistogramBucketBoundaries pins the bucket rule: inclusive upper
// bounds, so v == bounds[i] lands in bucket i, values beyond the last
// bound land in the overflow bucket, and values at or below the first
// bound land in bucket 0.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := withRegistry(t)
	withEnabled(t, func() {
		h := r.Histogram("lat", []float64{1, 10, 100})
		cases := []struct {
			v      float64
			bucket int
		}{
			{-5, 0}, {0, 0}, {1, 0}, // at/below first bound
			{1.0000001, 1}, {10, 1}, // boundary inclusive below
			{10.5, 2}, {100, 2},
			{100.0001, 3}, {1e12, 3}, // overflow
		}
		for _, c := range cases {
			h.Observe(c.v)
		}
		counts := h.BucketCounts()
		want := []int64{3, 2, 2, 2}
		for i := range want {
			if counts[i] != want[i] {
				t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
			}
		}
		if h.Count() != int64(len(cases)) {
			t.Fatalf("count = %d, want %d", h.Count(), len(cases))
		}
		var sum float64
		for _, c := range cases {
			sum += c.v
		}
		if math.Abs(h.Sum()-sum) > 1e-6 {
			t.Fatalf("sum = %v, want %v", h.Sum(), sum)
		}
		// Unsorted boundary input is sorted at construction.
		h2 := r.Histogram("lat2", []float64{100, 1, 10})
		b := h2.Bounds()
		if b[0] != 1 || b[1] != 10 || b[2] != 100 {
			t.Fatalf("bounds not sorted: %v", b)
		}
	})
}

// TestRegistryConcurrency hammers one registry from parallel writers while
// snapshots are taken concurrently; run under -race this is the data-race
// gate for the lock-free instruments.
func TestRegistryConcurrency(t *testing.T) {
	r := withRegistry(t)
	withEnabled(t, func() {
		const workers = 8
		const perWorker = 2000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := r.Counter("shared.counter")
				g := r.Gauge("shared.gauge")
				h := r.Histogram("shared.hist", []float64{10, 100, 1000})
				for i := 0; i < perWorker; i++ {
					c.Inc()
					g.Set(float64(i))
					h.Observe(float64(i % 2000))
					sp := r.StartSpan("worker")
					sp.End()
				}
			}(w)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				s := r.Snapshot()
				if c := s.Counters["shared.counter"]; c < 0 || c > workers*perWorker {
					t.Errorf("impossible counter value %d", c)
					return
				}
				r.TraceEvents()
			}
		}()
		wg.Wait()
		<-done
		s := r.Snapshot()
		if got := s.Counters["shared.counter"]; got != workers*perWorker {
			t.Fatalf("counter = %d, want %d", got, workers*perWorker)
		}
		if got := s.Histograms["shared.hist"].Count; got != workers*perWorker {
			t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
		}
		if s.Spans.Recorded != workers*perWorker {
			t.Fatalf("spans recorded = %d, want %d", s.Spans.Recorded, workers*perWorker)
		}
	})
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := withRegistry(t)
	withEnabled(t, func() {
		r.Counter("a").Add(7)
		r.Gauge("b").Set(1.5)
		r.Histogram("c", []float64{1, 2}).Observe(1)
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var back Snap
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Counters["a"] != 7 || back.Gauges["b"] != 1.5 || back.Histograms["c"].Count != 1 {
			t.Fatalf("round trip mismatch: %+v", back)
		}
	})
}

func TestHandlersServeJSON(t *testing.T) {
	r := withRegistry(t)
	withEnabled(t, func() {
		r.Counter("hits").Add(2)
		sp := r.StartSpan("handler.span")
		sp.End()

		mux := DebugMux()
		req := httptest.NewRequest("GET", "/debug/trace", nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("/debug/trace: status %d", rec.Code)
		}
		if body, _ := io.ReadAll(rec.Result().Body); !json.Valid(body) {
			t.Fatalf("/debug/trace: invalid JSON: %s", body)
		}
		// The metrics themselves have one exposition: /metrics.
		req = httptest.NewRequest("GET", "/metrics", nil)
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if !strings.Contains(rec.Body.String(), "hits_total") {
			t.Fatalf("/metrics is missing the hits counter:\n%s", rec.Body.String())
		}
		req = httptest.NewRequest("GET", "/debug/vars", nil)
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != 404 {
			t.Fatalf("/debug/vars: status %d, want 404 (metrics are served on /metrics only)", rec.Code)
		}
	})
}

func TestSetDefaultSwap(t *testing.T) {
	r1 := withRegistry(t)
	withEnabled(t, func() {
		GetCounter("swap.test").Add(1)
		r2 := NewRegistry()
		SetDefault(r2)
		defer SetDefault(r1)
		GetCounter("swap.test").Add(10)
		if got := r1.Counter("swap.test").Value(); got != 1 {
			t.Fatalf("old registry = %d, want 1", got)
		}
		if got := r2.Counter("swap.test").Value(); got != 10 {
			t.Fatalf("new registry = %d, want 10", got)
		}
	})
}
