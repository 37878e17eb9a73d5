package telemetry

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the /metrics exposition byte-for-byte: a
// deterministic registry (counter, gauge, histogram) plus one gathered
// peer snapshot, under a pinned fleet identity, must render exactly
// testdata/prom_golden.txt. Scrape configs and recording rules are
// written against this format; changing it is a breaking change and
// must show up in review as a golden diff. Regenerate with
// TELEMETRY_GOLDEN_UPDATE=1 go test ./internal/telemetry.
func TestPrometheusGolden(t *testing.T) {
	r := withRegistry(t)
	withIdentity(t, Identity{TraceID: 0x0123456789abcdef, Role: "train", Rank: 0, Replica: -1})
	withEnabled(t, func() {
		r.Counter("dist.frames_sent").Add(42)
		r.Gauge("serve.qps").Set(12.5)
		h := r.Histogram("serve.request_latency_ms", []float64{1, 2, 4})
		h.Observe(0.5)
		h.Observe(2)
		h.Observe(100)

		r.SetPeerSnap(1, Snap{
			Counters: map[string]int64{"dist.frames_sent": 17},
			Gauges:   map[string]float64{},
			Histograms: map[string]HistogramSnapshot{
				"serve.request_latency_ms": {Count: 1, Sum: 3, Bounds: []float64{1, 2, 4}, Counts: []int64{0, 0, 1, 0}},
			},
		})
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom_golden.txt")
	if os.Getenv("TELEMETRY_GOLDEN_UPDATE") == "1" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with TELEMETRY_GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Prometheus exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusExpositionShape checks the structural invariants the
// format requires regardless of content: exactly one TYPE line per
// series name, cumulative buckets ending in +Inf == _count, and the
// conventional _total suffix on counters.
func TestPrometheusExpositionShape(t *testing.T) {
	r := withRegistry(t)
	withIdentity(t, Identity{TraceID: 1, Role: "serve", Rank: -1, Replica: -1})
	withEnabled(t, func() {
		r.Counter("serve.requests").Add(3)
		h := r.Histogram("serve.batch_size", []float64{1, 2})
		h.Observe(1)
		h.Observe(5)
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	typeSeen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if typeSeen[name] {
			t.Fatalf("duplicate TYPE line for %s:\n%s", name, out)
		}
		typeSeen[name] = true
	}
	if !typeSeen["serve_requests_total"] || !typeSeen["serve_batch_size"] {
		t.Fatalf("missing TYPE lines in:\n%s", out)
	}
	if !strings.Contains(out, `serve_batch_size_bucket{run="0000000000000001",role="serve",le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket does not equal the observation count:\n%s", out)
	}
	if !strings.Contains(out, `serve_batch_size_count{run="0000000000000001",role="serve"} 2`) {
		t.Fatalf("missing _count sample:\n%s", out)
	}
}

// TestDebugMuxEndpoints scrapes every route on the debug mux once and
// checks status and content type — the surface ServeDebug exposes.
func TestDebugMuxEndpoints(t *testing.T) {
	withRegistry(t)
	withEnabled(t, func() {
		GetCounter("mux.test_counter").Inc() //metric_lint:allow test-only name
	})
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	cases := []struct {
		path     string
		wantType string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/trace", "application/json; charset=utf-8"},
		{"/debug/pprof/", "text/html; charset=utf-8"},
	}
	for _, c := range cases {
		resp, err := srv.Client().Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != c.wantType {
			t.Fatalf("%s: content type %q, want %q", c.path, got, c.wantType)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", c.path)
		}
	}
}

// TestConcurrentScrapeAndWrite hammers the exposition endpoints while
// writers move every instrument kind and peer snapshots churn — the
// race detector (verify.sh runs this package under -race) is the
// assertion; the test itself only checks nothing panics and scrapes
// stay well-formed.
func TestConcurrentScrapeAndWrite(t *testing.T) {
	r := withRegistry(t)
	withEnabled(t, func() {
		srv := httptest.NewServer(DebugMux())
		defer srv.Close()

		c := r.Counter("stress.ops")
		g := r.Gauge("stress.level")
		h := r.Histogram("stress.lat_ms", ExpBuckets(0.1, 2, 10))

		const writers, scrapers, iters = 4, 4, 200
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					c.Inc()
					g.Set(float64(i))
					h.Observe(float64(seed*i%17) + 0.2)
					sp := r.StartSpan("stress.span")
					sp.End()
					r.SetPeerSnap(seed, Snap{Counters: map[string]int64{"stress.ops": int64(i)}})
				}
			}(w)
		}
		for s := 0; s < scrapers; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters/4; i++ {
					for _, path := range []string{"/metrics", "/debug/trace"} {
						resp, err := srv.Client().Get(srv.URL + path)
						if err != nil {
							t.Errorf("%s: %v", path, err)
							return
						}
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != 200 || len(body) == 0 {
							t.Errorf("%s: status %d, %d bytes", path, resp.StatusCode, len(body))
							return
						}
					}
				}
			}()
		}
		wg.Wait()

		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "stress_ops_total") {
			t.Fatalf("final scrape missing stress_ops_total:\n%s", buf.String())
		}
	})
}
