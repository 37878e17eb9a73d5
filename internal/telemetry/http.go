package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// traceHandler serves the span ring as Chrome trace JSON (load the saved
// response in Perfetto).
func traceHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	Default().WriteTrace(w) //nolint:errcheck // best-effort debug endpoint
}

// promHandler serves the default registry — plus any gathered fleet
// peer snapshots — in the Prometheus text exposition format.
func promHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	Default().WritePrometheus(w) //nolint:errcheck // best-effort debug endpoint
}

// DebugMux returns an http.ServeMux with the full debug surface:
//
//	/metrics      Prometheus text exposition (scrapable; includes fleet
//	              peer snapshots on a training root)
//	/debug/trace  Chrome trace JSON of the span ring
//	/debug/pprof  the standard net/http/pprof handlers
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", promHandler)
	mux.HandleFunc("/debug/trace", traceHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug server on addr in a background goroutine
// (the CLI -debug-addr flag) and returns it; callers may Close it to stop.
// Listening errors are returned synchronously. The returned server's Addr
// holds the actually bound address, so ":0" callers can discover their
// ephemeral port.
func ServeDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: DebugMux()}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return srv, nil
}
