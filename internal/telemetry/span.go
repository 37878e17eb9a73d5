package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// defaultSpanCap is the span ring capacity: enough for tens of seconds of
// conv/GEMM-granularity spans. When the ring is full the oldest records
// are overwritten (counted in SpanStats.Dropped); within capacity the
// record is lossless — every StartSpan/End pair while enabled is kept,
// nothing is sampled.
const defaultSpanCap = 1 << 16

// spanRecord is one completed span.
type spanRecord struct {
	name  string
	start int64                  // ns, from the ring's clock
	dur   int64                  // ns
	args  map[string]interface{} // optional trace-event args (nil for plain spans)
}

// spanRing is a fixed-capacity overwrite-oldest ring of completed spans.
// Recording takes one short mutex hold (span End is conv/phase-granular,
// orders of magnitude rarer than counter updates, so a mutex keeps it
// simple and race-detector-clean). The buffer is allocated at the first
// record: a registry that never records a span carries no ring for the
// GC to scan.
type spanRing struct {
	mu       sync.Mutex
	buf      []spanRecord
	capacity int
	next     int   // next slot to write
	recorded int64 // total record() calls
	now      func() int64
}

func newSpanRing(capacity int) *spanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &spanRing{
		capacity: capacity,
		now:      func() int64 { return time.Now().UnixNano() },
	}
}

func (r *spanRing) record(name string, start, end int64, args map[string]interface{}) {
	rec := spanRecord{name: name, start: start, dur: end - start, args: args}
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]spanRecord, 0, r.capacity)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.recorded++
	r.mu.Unlock()
}

func (r *spanRing) stats() SpanStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped := r.recorded - int64(len(r.buf))
	return SpanStats{Recorded: r.recorded, Dropped: dropped, Capacity: r.capacity}
}

// records returns a copy of the retained spans (unordered).
func (r *spanRing) records() []spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.buf...)
}

func (r *spanRing) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[:0]
	r.next = 0
	r.recorded = 0
}

// Span is a scoped timing measurement. The zero Span (returned when
// telemetry is disabled) makes End a no-op, so call sites need no guards:
//
//	sp := telemetry.StartSpan("odq.predictor")
//	... work ...
//	sp.End()
//
// Span is a value type: starting and ending a span allocates nothing.
type Span struct {
	name  string
	start int64
	ring  *spanRing
	args  map[string]interface{}
}

// StartSpan begins a span recorded into the default registry's ring.
// Use static (compile-time constant) names; dynamic names allocate at the
// call site.
func StartSpan(name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Default().StartSpan(name)
}

// StartSpan begins a span recorded into this registry's ring.
func (r *Registry) StartSpan(name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	ring := r.spans
	return Span{name: name, start: ring.now(), ring: ring}
}

// StartSpanWith begins a span carrying trace-event args — request ids,
// batch sizes — that render in the span's detail pane in Perfetto. The
// map is retained until export; callers should gate construction behind
// Enabled() since building it allocates (plain StartSpan stays
// allocation-free).
func StartSpanWith(name string, args map[string]interface{}) Span {
	sp := StartSpan(name)
	sp.args = args
	return sp
}

// End completes the span. No-op on the zero Span.
func (s Span) End() {
	if s.ring == nil {
		return
	}
	s.ring.record(s.name, s.start, s.ring.now(), s.args)
}

// ResetSpans clears the registry's span ring.
func (r *Registry) ResetSpans() { r.spans.reset() }

// TraceEvent is one Chrome trace-event record — "X" (complete) for
// spans, "M" (metadata) for process naming. The exported JSON loads
// directly in Perfetto / chrome://tracing.
type TraceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`  // microseconds since the first span
	Dur  float64                `json:"dur"` // microseconds
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// TraceMeta is the cross-process correlation block embedded in every
// exported trace file: which run the process belonged to, where it sat
// in the fleet, and the absolute wall-clock nanosecond the file's ts 0
// corresponds to — odq-tracemerge uses BaseNs to line the per-rank
// lanes up on one shared clock.
type TraceMeta struct {
	TraceID string `json:"trace_id,omitempty"`
	Role    string `json:"role,omitempty"`
	Rank    int    `json:"rank"`
	Replica int    `json:"replica"`
	BaseNs  int64  `json:"base_ns"`
}

// ProcessLabel renders the human-readable fleet position ("train rank
// 0", "serve") used for Perfetto process lanes.
func (m TraceMeta) ProcessLabel() string {
	label := m.Role
	if label == "" {
		label = "proc"
	}
	if m.Rank >= 0 {
		label = fmt.Sprintf("%s rank %d", label, m.Rank)
	}
	if m.Replica >= 0 {
		label = fmt.Sprintf("%s replica %d", label, m.Replica)
	}
	return label
}

// traceFile is the Chrome trace-event file envelope. OdqMeta is an
// extension key (viewers ignore unknown envelope keys) carrying the
// correlation identity.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	OdqMeta         *TraceMeta   `json:"odqMeta,omitempty"`
}

// TraceEvents converts the retained spans to Chrome trace events, sorted
// by start time (ts is monotonically non-decreasing) and re-based so the
// earliest span starts at ts 0. Spans are laid out on "threads" by greedy
// interval coloring: each span takes the lowest tid whose previous span
// has already ended, so overlapping (concurrent or nested) spans render
// on separate rows in Perfetto.
func (r *Registry) TraceEvents() []TraceEvent {
	events, _ := r.traceEvents()
	return events
}

// traceEvents additionally returns the absolute clock value (ns) the
// events were re-based against, for the trace file's correlation block.
func (r *Registry) traceEvents() ([]TraceEvent, int64) {
	recs := r.spans.records()
	if len(recs) == 0 {
		return nil, 0
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].start != recs[j].start {
			return recs[i].start < recs[j].start
		}
		if recs[i].dur != recs[j].dur {
			return recs[i].dur > recs[j].dur // longer (enclosing) span first
		}
		return recs[i].name < recs[j].name
	})
	base := recs[0].start
	var laneEnds []int64
	events := make([]TraceEvent, 0, len(recs))
	for _, rec := range recs {
		tid := -1
		for i, end := range laneEnds {
			if end <= rec.start {
				tid = i
				break
			}
		}
		if tid < 0 {
			tid = len(laneEnds)
			laneEnds = append(laneEnds, 0)
		}
		laneEnds[tid] = rec.start + rec.dur
		events = append(events, TraceEvent{
			Name: rec.name,
			Ph:   "X",
			Ts:   float64(rec.start-base) / 1e3,
			Dur:  float64(rec.dur) / 1e3,
			Pid:  1,
			Tid:  tid + 1,
			Args: rec.args,
		})
	}
	return events, base
}

// WriteTrace writes the registry's spans as Chrome trace-event JSON.
// The file embeds the process identity twice: as the odqMeta envelope
// block odq-tracemerge correlates on, and as a process_name metadata
// event so even a single rank's file shows its fleet position in
// Perfetto.
func (r *Registry) WriteTrace(w io.Writer) error {
	events, base := r.traceEvents()
	if events == nil {
		events = []TraceEvent{}
	}
	id := CurrentIdentity()
	meta := &TraceMeta{
		Role: id.Role, Rank: id.Rank, Replica: id.Replica, BaseNs: base,
	}
	if id.TraceID != 0 {
		meta.TraceID = id.TraceIDString()
	}
	named := make([]TraceEvent, 0, len(events)+1)
	named = append(named, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]interface{}{"name": meta.ProcessLabel()},
	})
	named = append(named, events...)
	f := traceFile{TraceEvents: named, DisplayTimeUnit: "ns", OdqMeta: meta}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteTrace writes the default registry's spans as Chrome trace JSON.
func WriteTrace(w io.Writer) error { return Default().WriteTrace(w) }

// WriteTraceFile dumps the default registry's spans to path (the CLI
// -trace-out flag).
func WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteSnapshotFile dumps a JSON snapshot of the default registry to path
// (the CLI -metrics-out flag).
func WriteSnapshotFile(path string) error {
	data, err := json.MarshalIndent(Snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
