package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// spanLog keeps the spans the program emits during a traced run in
// memory. The benchmark drains the telemetry ring after every measured
// call, outside the timed region, so the ring never overwrites a span;
// the log is written out as one Chrome/Perfetto trace at the end, one
// process lane per workload.
type spanLog struct {
	base    int64 // ns of the first harvested span; trace time 0
	events  []telemetry.TraceEvent
	lanes   []telemetry.TraceEvent // process_name records, one per workload
	pid     int
	dropped int64 // spans the ring overwrote during the current workload
}

// begin starts the lane of one workload.
func (l *spanLog) begin(pid int, workload string) {
	l.pid, l.dropped = pid, 0
	l.lanes = append(l.lanes, telemetry.TraceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]interface{}{"name": workload}})
}

// start switches span recording on with an empty ring and returns the
// function that switches it off again.
func (l *spanLog) start() (stop func()) {
	l.harvest()
	telemetry.Enable()
	return telemetry.Disable
}

// harvest moves the ring's spans into the log and returns them, with Ts
// and Dur in microseconds of trace time. Spans it cannot read count as
// dropped.
func (l *spanLog) harvest() []telemetry.TraceEvent {
	reg := telemetry.Default()
	l.dropped += reg.Snapshot().Spans.Dropped
	var buf bytes.Buffer
	var f struct {
		Events []telemetry.TraceEvent `json:"traceEvents"`
		Meta   telemetry.TraceMeta    `json:"odqMeta"`
	}
	err := reg.WriteTrace(&buf)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &f)
	}
	reg.ResetSpans()
	if err != nil {
		l.dropped++
		return nil
	}
	out := f.Events[:0]
	for _, ev := range f.Events {
		if ev.Ph != "X" {
			continue
		}
		if l.base == 0 {
			l.base = f.Meta.BaseNs
		}
		ev.Ts += float64(f.Meta.BaseNs-l.base) / 1e3
		ev.Pid = l.pid
		out = append(out, ev)
	}
	l.events = append(l.events, out...)
	return out
}

func (l *spanLog) writeFile(path string) error {
	return writeJSON(path, map[string]interface{}{
		"traceEvents":     append(append([]telemetry.TraceEvent(nil), l.lanes...), l.events...),
		"displayTimeUnit": "ns",
	})
}

// spanSums accumulates the self times, in ms, of the conv-level spans
// the program emits: each odq.conv body split into the sensitivity
// predictor, the executor and the rest (the HBS/LBS split of the
// activation codes, weight-cache lookup, mask allocation, profile
// recording; activation quantization runs before the span), and GEMM
// time anywhere. GEMM spans nested in a predictor or executor span are
// that span's children, not its self time.
type spanSums struct {
	conv, pred, exec, gemm, gemmInPred, gemmInExec float64
}

// add folds in the spans of one measured call. Spans of one kind never
// overlap each other there: the conv body runs on the calling goroutine.
func (s *spanSums) add(evs []telemetry.TraceEvent) {
	var pred, exec [][2]float64
	for _, ev := range evs {
		ms := ev.Dur / 1e3
		switch {
		case ev.Name == "odq.conv":
			s.conv += ms
		case ev.Name == "odq.predictor":
			s.pred += ms
			pred = append(pred, [2]float64{ev.Ts, ev.Ts + ev.Dur})
		case ev.Name == "odq.executor":
			s.exec += ms
			exec = append(exec, [2]float64{ev.Ts, ev.Ts + ev.Dur})
		case strings.HasPrefix(ev.Name, "gemm."):
			s.gemm += ms
		}
	}
	for _, ev := range evs {
		if !strings.HasPrefix(ev.Name, "gemm.") {
			continue
		}
		if within(pred, ev) {
			s.gemmInPred += ev.Dur / 1e3
		} else if within(exec, ev) {
			s.gemmInExec += ev.Dur / 1e3
		}
	}
}

// within reports whether ev lies inside one of the start-sorted,
// non-overlapping intervals ivs.
func within(ivs [][2]float64, ev telemetry.TraceEvent) bool {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i][0] > ev.Ts }) - 1
	return i >= 0 && ev.Ts+ev.Dur <= ivs[i][1]
}

// report sets the core and tensor metrics as per-call means over calls.
func (s *spanSums) report(r *run, calls float64) {
	r.set("core.predictor_ms.b16", (s.pred-s.gemmInPred)/calls)
	r.set("core.executor_ms.b16", (s.exec-s.gemmInExec)/calls)
	r.set("core.conv_other_ms.b16", (s.conv-s.pred-s.exec)/calls)
	r.set("tensor.gemm_ms.b16", s.gemm/calls)
}
