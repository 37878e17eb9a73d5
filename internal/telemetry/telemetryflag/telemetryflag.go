// Package telemetryflag wires the telemetry layer into a CLI. All
// long-running commands (odq-train, odq-infer, odq-bench, odq-serve)
// share the same flags:
//
//	-debug-addr :6060     serve /metrics, /debug/trace, /debug/pprof
//	-trace-out trace.json write a Chrome trace (Perfetto-loadable) on exit
//	-metrics-out m.json   write a metrics snapshot on exit
//	-trace-id 0f3a...     join an existing run's trace correlation id
//	-log-format text      structured log format: text or json
//	-log-level info       minimum log level: debug, info, warn, error
//
// Telemetry collection stays globally disabled (a few ns per
// instrumentation site) unless -debug-addr, -trace-out or -metrics-out
// is set; structured logging is always configured.
package telemetryflag

import (
	"flag"
	"fmt"
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/telemetry/olog"
)

// Flags holds the parsed telemetry flag values.
type Flags struct {
	DebugAddr  string
	TraceOut   string
	MetricsOut string
	TraceID    string
	LogFormat  string
	LogLevel   string
}

// Register installs the shared telemetry flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve /metrics, /debug/trace and /debug/pprof on this address (e.g. :6060)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a Chrome trace-event JSON file (load in Perfetto, merge ranks with odq-tracemerge) on exit")
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write a metrics snapshot JSON file on exit")
	fs.StringVar(&f.TraceID, "trace-id", "",
		"16-hex-digit run trace id to join (default: generated, or adopted from the coordinator)")
	fs.StringVar(&f.LogFormat, "log-format", "text",
		"structured log format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info",
		"minimum log level: debug, info, warn or error")
	return f
}

// Activate configures structured logging, applies any explicit
// -trace-id, enables metric/span collection when a telemetry flag was
// set, and starts the debug HTTP server when -debug-addr was given. It
// returns a flush function for the caller to run before exit; with no
// telemetry flags set collection stays off and the returned flush is a
// no-op.
func (f *Flags) Activate() (flush func() error, err error) {
	if err := olog.Setup(olog.Options{Format: f.LogFormat, Level: f.LogLevel}); err != nil {
		return nil, err
	}
	if f.TraceID != "" {
		id, err := strconv.ParseUint(f.TraceID, 16, 64)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("telemetry: -trace-id %q is not a nonzero 16-hex-digit id", f.TraceID)
		}
		telemetry.SetTraceID(id)
	}
	if f.DebugAddr == "" && f.TraceOut == "" && f.MetricsOut == "" {
		return func() error { return nil }, nil
	}
	telemetry.Enable()
	// Collection is on: make sure the run has a correlation id so every
	// export (trace file, /metrics labels, log lines) can be joined.
	telemetry.EnsureTraceID()
	if f.DebugAddr != "" {
		srv, err := telemetry.ServeDebug(f.DebugAddr)
		if err != nil {
			return nil, err
		}
		// srv.Addr is the actually bound address, so ":0" callers (the
		// serve smoke test) learn their ephemeral port from this line.
		olog.Info("telemetry debug server listening", "addr", srv.Addr,
			"endpoints", "/metrics /debug/trace /debug/pprof")
	}
	return f.flush, nil
}

func (f *Flags) flush() error {
	if f.TraceOut != "" {
		if err := telemetry.WriteTraceFile(f.TraceOut); err != nil {
			return err
		}
		olog.Info("telemetry trace written", "path", f.TraceOut)
	}
	if f.MetricsOut != "" {
		if err := telemetry.WriteSnapshotFile(f.MetricsOut); err != nil {
			return err
		}
		olog.Info("telemetry metrics snapshot written", "path", f.MetricsOut)
	}
	return nil
}
