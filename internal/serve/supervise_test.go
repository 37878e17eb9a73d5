package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// sessionFactory builds fresh sessions off the same seed the pool was
// built from — the replica-invariance contract for respawns. It is a
// plain error-returning closure because the supervisor calls it from a
// replica goroutine, where t.Fatal is illegal.
func sessionFactory(seed int64, scheme string) func() (*infer.Session, error) {
	return func() (*infer.Session, error) {
		net, err := models.Build("lenet5", models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: seed})
		if err != nil {
			return nil, err
		}
		return infer.NewSession(net, scheme, infer.WithThreshold(0.5))
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPanicRespawnRestoresServing is the supervision tentpole: an
// injected panic crashes one replica's pass, the crashed batch is
// answered with errors (never dropped, never a process crash), the pool
// keeps serving on the survivor, and the supervisor respawns the
// crashed replica with a fresh session whose answers are bit-identical
// to the pre-crash weights.
func TestPanicRespawnRestoresServing(t *testing.T) {
	const seed = 70
	srv := testReplicated(t, 2, seed, "odq", Config{
		MaxBatch: 1, BatchDeadline: time.Millisecond,
		SessionFactory: sessionFactory(seed, "odq"),
		RespawnDelay:   5 * time.Millisecond,
	})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck

	// Warm pass, then reference answer for parity checks.
	in := randInput(500)
	ref := testSession(t, seed, "odq")
	x := tensor.New(1, 1, 28, 28)
	copy(x.Data, in)
	want := ref.Forward(x)

	r0, err := submit(srv, in)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-r0; res.Err != nil {
		t.Fatalf("warm request failed: %v", res.Err)
	}

	srv.InjectPanic(1)
	rc, err := submit(srv, in)
	if err != nil {
		t.Fatal(err)
	}
	crashed := <-rc
	if crashed.Err == nil {
		t.Fatal("the batch on the panicked replica must be answered with an error")
	}
	if !strings.Contains(crashed.Err.Error(), "panicked") {
		t.Fatalf("crashed batch error = %v, want the panic to be named", crashed.Err)
	}

	// The pool must keep serving while one replica is down or respawning.
	rs, err := submit(srv, in)
	if err != nil {
		t.Fatal(err)
	}
	res := <-rs
	if res.Err != nil {
		t.Fatalf("request during degraded window failed: %v", res.Err)
	}
	for j, v := range res.Logits {
		if math.Float32bits(v) != math.Float32bits(want.Data[j]) {
			t.Fatalf("degraded-window logit %d = %g, reference = %g", j, v, want.Data[j])
		}
	}

	waitFor(t, "crashed replica to respawn", func() bool { return srv.HealthyReplicas() == 2 })
	st := srv.Stats()
	restarts := int64(0)
	for _, r := range st.PerReplica {
		restarts += r.Restarts
	}
	if restarts != 1 {
		t.Fatalf("pool restarts = %d, want exactly 1", restarts)
	}

	// Post-respawn answers are bit-identical: the factory rebuilt the
	// same weights, so the crash is invisible in the answers.
	for i := 0; i < 4; i++ {
		r, err := submit(srv, in)
		if err != nil {
			t.Fatal(err)
		}
		res := <-r
		if res.Err != nil {
			t.Fatalf("post-respawn request %d failed: %v", i, res.Err)
		}
		for j, v := range res.Logits {
			if math.Float32bits(v) != math.Float32bits(want.Data[j]) {
				t.Fatalf("post-respawn logit %d = %g, reference = %g", j, v, want.Data[j])
			}
		}
	}
}

// TestRespawnBudgetTombstones: a replica that keeps panicking is
// respawned at most MaxRespawns times, then tombstoned — and a fully
// tombstoned pool still answers every request with an honest error
// instead of wedging the collector or a drain.
func TestRespawnBudgetTombstones(t *testing.T) {
	const seed = 71
	srv := testServer(t, seed, "odq", Config{
		MaxBatch: 1, BatchDeadline: time.Millisecond,
		SessionFactory: sessionFactory(seed, "odq"),
		MaxRespawns:    1,
		RespawnDelay:   time.Millisecond,
	})
	srv.Start()

	submitErr := func() error {
		r, err := submit(srv, randInput(1))
		if err != nil {
			t.Fatal(err)
		}
		return (<-r).Err
	}

	srv.InjectPanic(1)
	if err := submitErr(); err == nil {
		t.Fatal("first crash must answer with an error")
	}
	waitFor(t, "first respawn", func() bool { return srv.HealthyReplicas() == 1 })

	srv.InjectPanic(1)
	if err := submitErr(); err == nil {
		t.Fatal("second crash must answer with an error")
	}
	// Budget (1) is spent: no second respawn, the replica is tombstoned.
	waitFor(t, "tombstone", func() bool { return srv.HealthyReplicas() == 0 })

	if err := submitErr(); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("tombstoned pool answered %v, want a replica-down error", err)
	}
	st := srv.Stats()
	if st.PerReplica[0].Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (budget)", st.PerReplica[0].Restarts)
	}
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain over a tombstoned pool: %v", err)
	}
}

// TestDegradedReadiness: without a SessionFactory a panicked replica is
// tombstoned immediately, /readyz stays 200 but says "degraded" while
// some capacity survives, flips to 503 at zero healthy replicas, and
// /v1/status itemizes per-replica health the whole way.
func TestDegradedReadiness(t *testing.T) {
	srv := testReplicated(t, 2, 72, "odq", Config{MaxBatch: 1, BatchDeadline: time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readyz := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := readyz(); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("healthy pool readyz = %d %q", code, body)
	}

	kill := func() {
		srv.InjectPanic(1)
		r, err := submit(srv, randInput(2))
		if err != nil {
			t.Fatal(err)
		}
		if res := <-r; res.Err == nil {
			t.Fatal("crash batch must error")
		}
	}

	kill()
	waitFor(t, "first tombstone", func() bool { return srv.HealthyReplicas() == 1 })
	code, body := readyz()
	if code != http.StatusOK || !strings.Contains(body, "degraded (1/2") {
		t.Fatalf("degraded readyz = %d %q, want 200 with degraded capacity", code, body)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.HealthyReplicas != 1 || st.Replicas != 2 {
		t.Fatalf("status healthy_replicas = %d/%d, want 1/2", st.HealthyReplicas, st.Replicas)
	}
	unhealthy := 0
	for _, r := range st.PerReplica {
		if !r.Healthy {
			unhealthy++
		}
	}
	if unhealthy != 1 {
		t.Fatalf("status lists %d unhealthy replicas, want 1", unhealthy)
	}

	kill()
	waitFor(t, "second tombstone", func() bool { return srv.HealthyReplicas() == 0 })
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "no healthy replicas") {
		t.Fatalf("dead pool readyz = %d %q, want 503", code, body)
	}
}

// TestClientDeadlineShedInQueue: a request whose client gave up while
// queued is shed by the collector with Result.Err — no executor pass is
// spent on it and its channel still gets an answer.
func TestClientDeadlineShedInQueue(t *testing.T) {
	srv := testServer(t, 73, "odq", Config{MaxBatch: 4, BatchDeadline: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	// Enqueue before Start so the cancellation deterministically lands
	// while the request is still queued.
	r, err := srv.SubmitCtx(ctx, randInput(3), "shed-me")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck

	select {
	case res := <-r:
		if res.Err == nil || !strings.Contains(res.Err.Error(), "deadline expired") {
			t.Fatalf("shed result = %+v, want a deadline-expired error", res)
		}
		if res.RequestID != "shed-me" {
			t.Fatalf("shed result id %q, want the request's id", res.RequestID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shed request never answered")
	}
	if served := srv.Stats().Served; served != 0 {
		t.Fatalf("shed request counted as served (%d)", served)
	}
}

// TestDrainReloadPanicNoStrand is the Drain/Reload race regression
// (run under -race in the verify gate): reloads, inference traffic and
// injected replica panics hammer the pool concurrently, and a drain
// must still complete — a panicked replica error-acks the reload order
// it crashed on instead of stranding Reload (and through it the
// collector and the drain) on an ack that never comes.
func TestDrainReloadPanicNoStrand(t *testing.T) {
	const seed = 74
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "w.ckpt")
	net, err := models.Build("lenet5", models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Save(f, net); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv := testReplicated(t, 2, seed, "odq", Config{
		MaxBatch: 2, BatchDeadline: time.Millisecond,
		SessionFactory: sessionFactory(seed, "odq"),
		RespawnDelay:   time.Millisecond,
		CkptPath:       ckpt,
	})
	srv.Start()

	var wg sync.WaitGroup
	// Traffic: every accepted request must eventually get SOME answer.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r, err := submit(srv, randInput(int64(c*100+i)))
				if err != nil {
					continue // queue full / draining: rejected at admission is fine
				}
				select {
				case <-r:
				case <-time.After(30 * time.Second):
					t.Errorf("client %d request %d: accepted but never answered", c, i)
					return
				}
			}
		}(c)
	}
	// Reloads racing the traffic and the panics.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			srv.Reload(ckpt) //nolint:errcheck // racing a panicked replica may legitimately error
			time.Sleep(time.Millisecond)
		}
	}()
	// Panics racing both.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			srv.InjectPanic(1)
			time.Sleep(3 * time.Millisecond)
		}
	}()
	wg.Wait()

	if err := srv.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain stranded after the reload/panic hammer: %v", err)
	}
}
