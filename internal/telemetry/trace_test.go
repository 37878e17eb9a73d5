package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// tickClock replaces the ring's clock with a deterministic 250µs tick so
// the golden trace is byte-stable.
func tickClock(r *Registry) {
	var clock int64
	r.spans.now = func() int64 {
		clock += 250_000
		return clock
	}
}

// TestTraceGolden locks the Chrome trace export format: a deterministic
// span set (a predictor span enclosing GEMM pack/kernel spans, then an
// executor span) must serialize byte-for-byte to testdata/trace_golden.json.
// Regenerate with TELEMETRY_GOLDEN_UPDATE=1 go test ./internal/telemetry.
// withIdentity pins the process identity for the test and restores the
// previous one afterwards (identity is process-global).
func withIdentity(t *testing.T, id Identity) {
	t.Helper()
	prev := CurrentIdentity()
	SetIdentity(id)
	t.Cleanup(func() { SetIdentity(prev) })
}

func TestTraceGolden(t *testing.T) {
	r := withRegistry(t)
	tickClock(r)
	withIdentity(t, Identity{TraceID: 0x0123456789abcdef, Role: "train", Rank: 0, Replica: -1})
	withEnabled(t, func() {
		pred := r.StartSpan("odq.predictor")
		pack := r.StartSpan("gemm.pack")
		pack.End()
		kern := r.StartSpan("gemm.kernel")
		kern.End()
		pred.End()
		exec := r.StartSpan("odq.executor")
		exec.End()
	})

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if os.Getenv("TELEMETRY_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with TELEMETRY_GOLDEN_UPDATE=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace JSON diverged from golden\n got: %s\nwant: %s", buf.Bytes(), want)
	}

	// The golden itself must round-trip through encoding/json with
	// monotonically ordered ts fields and sane lane assignment.
	assertTraceWellFormed(t, buf.Bytes())
}

// assertTraceWellFormed checks the exported trace parses, has
// non-decreasing ts, and never overlaps two spans on one tid.
func assertTraceWellFormed(t *testing.T, data []byte) {
	t.Helper()
	var f struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	// Lane ends are compared in the exporter's integer nanoseconds: summing
	// the float µs fields can round a few ulps past the next span's start
	// even when the spans abut exactly.
	ns := func(us float64) int64 { return int64(math.Round(us * 1e3)) }
	laneEnd := map[int]int64{}
	var prevTs float64
	sawSpan := false
	for i, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			// Identity metadata (process_name) events lead the file,
			// before any span.
			if sawSpan {
				t.Fatalf("event %d: metadata event after span events", i)
			}
			continue
		}
		if ev.Ph != "X" {
			t.Fatalf("event %d: phase %q, want X", i, ev.Ph)
		}
		sawSpan = true
		if ev.Ts < prevTs {
			t.Fatalf("event %d: ts %v < previous %v (not monotonic)", i, ev.Ts, prevTs)
		}
		prevTs = ev.Ts
		if ev.Dur < 0 {
			t.Fatalf("event %d: negative dur %v", i, ev.Dur)
		}
		if end, ok := laneEnd[ev.Tid]; ok && ns(ev.Ts) < end {
			t.Fatalf("event %d (%s): overlaps previous span on tid %d (ts %dns < lane end %dns)",
				i, ev.Name, ev.Tid, ns(ev.Ts), end)
		}
		laneEnd[ev.Tid] = ns(ev.Ts) + ns(ev.Dur)
	}
}

// TestTraceMonotonicUnderConcurrency records spans from parallel
// goroutines with the real clock and checks the export invariants hold.
func TestTraceMonotonicUnderConcurrency(t *testing.T) {
	r := withRegistry(t)
	withEnabled(t, func() {
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					sp := r.StartSpan("concurrent.work")
					sp.End()
				}
			}()
		}
		wg.Wait()
	})
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	assertTraceWellFormed(t, buf.Bytes())
	evs := r.TraceEvents()
	if len(evs) != 6*300 {
		t.Fatalf("got %d events, want %d", len(evs), 6*300)
	}
}

// TestSpanRingOverwrite checks the overwrite-oldest policy and drop
// accounting when the ring fills.
func TestSpanRingOverwrite(t *testing.T) {
	r := withRegistry(t)
	r.spans = newSpanRing(4)
	tickClock(r)
	withEnabled(t, func() {
		for i := 0; i < 10; i++ {
			sp := r.StartSpan("s")
			sp.End()
		}
	})
	st := r.spans.stats()
	if st.Recorded != 10 || st.Dropped != 6 || st.Capacity != 4 {
		t.Fatalf("stats = %+v, want recorded 10 dropped 6 cap 4", st)
	}
	if got := len(r.TraceEvents()); got != 4 {
		t.Fatalf("retained %d events, want 4", got)
	}
	r.ResetSpans()
	if st := r.spans.stats(); st.Recorded != 0 || len(r.TraceEvents()) != 0 {
		t.Fatalf("reset did not clear ring: %+v", st)
	}
}

// TestNewRegistryDefersSpanRing checks that a registry allocates its span
// ring at the first recorded span, not at construction: a registry that
// never records carries no ring, yet reports the ring's capacity.
func TestNewRegistryDefersSpanRing(t *testing.T) {
	const regs = 8
	keep := make([]*Registry, regs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewRegistry()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / regs; per >= 64<<10 {
		t.Fatalf("NewRegistry allocates %d B, want < 64 KiB", per)
	}
	r := keep[0]
	if st := r.spans.stats(); st.Capacity != defaultSpanCap || st.Recorded != 0 || st.Dropped != 0 {
		t.Fatalf("stats before any span = %+v, want capacity %d and nothing recorded", st, defaultSpanCap)
	}
	withEnabled(t, func() { r.StartSpan("s").End() })
	if st := r.spans.stats(); st.Capacity != defaultSpanCap || st.Recorded != 1 || st.Dropped != 0 {
		t.Fatalf("stats after one span = %+v, want capacity %d and 1 recorded", st, defaultSpanCap)
	}
}

// TestEmptyTrace checks the writer emits a valid empty envelope.
func TestEmptyTrace(t *testing.T) {
	r := withRegistry(t)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	assertTraceWellFormed(t, buf.Bytes())
}
