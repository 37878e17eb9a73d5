package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestHTTPInferRoundtrip exercises the JSON API end to end: a valid
// request gets a 200 with sane logits, a malformed one a 400.
func TestHTTPInferRoundtrip(t *testing.T) {
	srv := testServer(t, 30, "odq", Config{MaxBatch: 8, BatchDeadline: 2 * time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Input: randInput(55)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d: %s", resp.StatusCode, body)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Logits) != srv.Classes() || ir.Class < 0 || ir.Class >= srv.Classes() {
		t.Fatalf("bad answer: class %d, %d logits", ir.Class, len(ir.Logits))
	}
	if ir.BatchSize < 1 {
		t.Fatalf("batch size %d", ir.BatchSize)
	}

	// Wrong input length → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/infer", InferRequest{Input: []float32{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input status %d, want 400", resp.StatusCode)
	}

	// Garbage JSON → 400.
	gresp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage JSON status %d, want 400", gresp.StatusCode)
	}

	// GET on infer → 405.
	get, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer status %d, want 405", get.StatusCode)
	}
}

// TestHTTPRequestIDAndLatency checks the request-id correlation path —
// a client-supplied X-ODQ-Request-ID must come back on the response
// header and body, and an absent one must be minted — and that
// /v1/status reports a nonzero latency decomposition once requests
// have flowed.
func TestHTTPRequestIDAndLatency(t *testing.T) {
	srv := testServer(t, 32, "odq", Config{MaxBatch: 8, BatchDeadline: 2 * time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b, err := json.Marshal(InferRequest{Input: randInput(60)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ir InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "req-abc-123" {
		t.Fatalf("response header id %q, want req-abc-123", got)
	}
	if ir.RequestID != "req-abc-123" {
		t.Fatalf("response body id %q, want req-abc-123", ir.RequestID)
	}

	// No id supplied: the server mints one (16 hex digits).
	resp2, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Input: randInput(61)})
	var ir2 InferResponse
	if err := json.Unmarshal(body, &ir2); err != nil {
		t.Fatal(err)
	}
	if len(ir2.RequestID) != 16 || resp2.Header.Get(RequestIDHeader) != ir2.RequestID {
		t.Fatalf("minted id %q / header %q, want matching 16-hex ids",
			ir2.RequestID, resp2.Header.Get(RequestIDHeader))
	}

	st, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status StatusResponse
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if status.Latency.Total.Count < 2 || status.Latency.Execute.Count < 1 {
		t.Fatalf("latency decomposition empty: %+v", status.Latency)
	}
	if status.Latency.Total.P99 < status.Latency.Total.P50 {
		t.Fatalf("p99 %v < p50 %v", status.Latency.Total.P99, status.Latency.Total.P50)
	}
	if status.Latency.QueueWait.Count < 2 {
		t.Fatalf("queue-wait samples %d, want >= 2", status.Latency.QueueWait.Count)
	}
}

// TestHTTPStatusAndHealth checks /v1/status fields and the probe
// split: /healthz stays 200 through a drain (the process is alive),
// /readyz flips to 503 (stop routing here).
func TestHTTPStatusAndHealth(t *testing.T) {
	srv := testServer(t, 31, "int8pc", Config{ModelName: "lenet5", MaxBatch: 8, BatchDeadline: 2 * time.Millisecond})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r, err := submit(srv, randInput(70))
	if err != nil {
		t.Fatal(err)
	}
	<-r

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Model != "lenet5" || st.Scheme != "int8pc" || st.Served != 1 || st.Draining {
		t.Fatalf("status %+v", st)
	}
	if st.InputShape != [3]int{1, 28, 28} || st.Classes != 10 {
		t.Fatalf("status shape %v classes %d", st.InputShape, st.Classes)
	}

	for _, probe := range []string{"/healthz", "/readyz"} {
		hz, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		hz.Body.Close()
		if hz.StatusCode != http.StatusOK {
			t.Fatalf("%s %d before drain", probe, hz.StatusCode)
		}
	}

	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d while draining, want 200 (liveness must not flap on drain)", hz.StatusCode)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d while draining, want 503", rz.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/infer", InferRequest{Input: randInput(71)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining %d, want 503", resp.StatusCode)
	}
}

// TestHTTPHotReload is the serving-level stale-weight regression: after
// POST /v1/reload swaps in a new checkpoint, answers must be
// bit-identical to a fresh per-request session on those weights, and the
// generation must bump exactly once per reload.
func TestHTTPHotReload(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "new.ckpt")
	netNew, err := models.Build("lenet5", models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Save(f, netNew); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv := testServer(t, 201, "odq", Config{MaxBatch: 8, BatchDeadline: 2 * time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	in := randInput(88)
	resp, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Input: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-reload infer %d: %s", resp.StatusCode, body)
	}
	var before InferResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	if before.Generation != 0 {
		t.Fatalf("initial generation %d", before.Generation)
	}

	// Reload with no path and none configured → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/reload", ReloadRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pathless reload %d, want 400", resp.StatusCode)
	}
	// Reload from a missing file → 400, generation unchanged.
	resp, _ = postJSON(t, ts.URL+"/v1/reload", ReloadRequest{Path: filepath.Join(dir, "missing.ckpt")})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-file reload %d, want 400", resp.StatusCode)
	}

	resp, body = postJSON(t, ts.URL+"/v1/reload", ReloadRequest{Path: ckpt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload %d: %s", resp.StatusCode, body)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != 1 {
		t.Fatalf("post-reload generation %d, want 1 (failed reloads must not bump it)", rr.Generation)
	}

	resp, body = postJSON(t, ts.URL+"/v1/infer", InferRequest{Input: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload infer %d: %s", resp.StatusCode, body)
	}
	var after InferResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Generation != 1 {
		t.Fatalf("answer generation %d, want 1", after.Generation)
	}

	// Reference: fresh session built directly on the new weights.
	ref := testSession(t, 202, "odq")
	x := tensor.New(1, 1, 28, 28)
	copy(x.Data, in)
	want := ref.Forward(x)
	for j, v := range after.Logits {
		if v != want.Data[j] {
			t.Fatalf("post-reload logit %d = %g, fresh session = %g (stale weights served)", j, v, want.Data[j])
		}
	}
	same := true
	for j, v := range after.Logits {
		if v != before.Logits[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reload did not change answers — seeds too close to detect staleness")
	}
}
