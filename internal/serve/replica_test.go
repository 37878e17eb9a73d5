package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// testReplicated builds a pool of n replicas, every session hosting the
// identical model (same build seed) — the replica-invariance contract.
func testReplicated(t *testing.T, n int, seed int64, scheme string, cfg Config) *Server {
	t.Helper()
	cfg.InputC, cfg.InputH, cfg.InputW = 1, 28, 28
	sessions := make([]*infer.Session, n)
	for i := range sessions {
		sessions[i] = testSession(t, seed, scheme)
	}
	srv, err := NewReplicated(sessions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestReplicatedParityWithSingle: a 3-replica pool must answer with
// logits bit-identical to a 1-replica server on the same weights —
// which replica executes a request is an execution detail.
func TestReplicatedParityWithSingle(t *testing.T) {
	single := testServer(t, 60, "odq", Config{MaxBatch: 4, BatchDeadline: time.Millisecond})
	pool := testReplicated(t, 3, 60, "odq", Config{MaxBatch: 4, BatchDeadline: time.Millisecond})
	single.Start()
	pool.Start()
	defer single.Drain(10 * time.Second) //nolint:errcheck
	defer pool.Drain(10 * time.Second)   //nolint:errcheck

	for i := 0; i < 12; i++ {
		in := randInput(int64(1000 + i))
		rs, err := submit(single, in)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := submit(pool, in)
		if err != nil {
			t.Fatal(err)
		}
		a, b := <-rs, <-rp
		if a.Class != b.Class {
			t.Fatalf("request %d: single class %d, pool class %d", i, a.Class, b.Class)
		}
		for j := range a.Logits {
			if math.Float32bits(a.Logits[j]) != math.Float32bits(b.Logits[j]) {
				t.Fatalf("request %d logit %d: single %g, pool %g (replicas must be transparent)",
					i, j, a.Logits[j], b.Logits[j])
			}
		}
		if b.Replica < 0 || b.Replica >= 3 {
			t.Fatalf("request %d: replica index %d out of pool", i, b.Replica)
		}
	}
}

// TestRoundRobinDispatch: sequential lone batches must rotate through
// the replicas in order, and the per-replica counters must add up to
// the pool totals.
func TestRoundRobinDispatch(t *testing.T) {
	const replicas, rounds = 2, 6
	srv := testReplicated(t, replicas, 61, "odq", Config{MaxBatch: 4, BatchDeadline: time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck

	for i := 0; i < rounds; i++ {
		r, err := submit(srv, randInput(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		res := <-r // wait each batch out so dispatch order is deterministic
		if want := i % replicas; res.Replica != want {
			t.Fatalf("batch %d ran on replica %d, want %d (round-robin)", i, res.Replica, want)
		}
	}

	st := srv.Stats()
	if st.Replicas != replicas || len(st.PerReplica) != replicas {
		t.Fatalf("stats report %d replicas (%d detailed), want %d", st.Replicas, len(st.PerReplica), replicas)
	}
	var served, batches int64
	for i, r := range st.PerReplica {
		if r.Batches != rounds/replicas {
			t.Fatalf("replica %d ran %d batches, want %d", i, r.Batches, rounds/replicas)
		}
		served += r.Served
		batches += r.Batches
	}
	if served != st.Served || batches != st.Batches {
		t.Fatalf("per-replica totals (%d served, %d batches) disagree with pool totals (%d, %d)",
			served, batches, st.Served, st.Batches)
	}
}

// TestReplicatedReloadAll: one reload must swap weights on EVERY
// replica — every subsequent answer, whichever replica produces it,
// must come from the new weights at the same generation.
func TestReplicatedReloadAll(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "new.ckpt")
	netNew, err := models.Build("lenet5", models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Save(f, netNew); err != nil {
		t.Fatal(err)
	}
	f.Close()

	const replicas = 3
	srv := testReplicated(t, replicas, 62, "odq", Config{MaxBatch: 4, BatchDeadline: time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck

	gen, err := srv.Reload(ckptPath)
	if err != nil {
		t.Fatalf("pool reload: %v", err)
	}
	if gen != 1 {
		t.Fatalf("post-reload generation %d, want 1", gen)
	}
	for i, r := range srv.Stats().PerReplica {
		if r.Generation != 1 {
			t.Fatalf("replica %d at generation %d after pool reload, want 1", i, r.Generation)
		}
	}

	// Every replica must now answer from the new weights: run one batch
	// per replica and compare to a fresh session on the new checkpoint.
	ref := testSession(t, 63, "odq")
	in := randInput(97)
	x := tensor.New(1, 1, 28, 28)
	copy(x.Data, in)
	want := ref.Forward(x)
	seen := make(map[int]bool)
	for i := 0; i < replicas; i++ {
		r, err := submit(srv, in)
		if err != nil {
			t.Fatal(err)
		}
		res := <-r
		seen[res.Replica] = true
		if res.Generation != 1 {
			t.Fatalf("replica %d answered at generation %d, want 1", res.Replica, res.Generation)
		}
		for j, v := range res.Logits {
			if math.Float32bits(v) != math.Float32bits(want.Data[j]) {
				t.Fatalf("replica %d logit %d = %g, fresh session = %g (stale weights on one replica)",
					res.Replica, j, v, want.Data[j])
			}
		}
	}
	if len(seen) != replicas {
		t.Fatalf("round-robin covered %d of %d replicas", len(seen), replicas)
	}

	// A failed reload (missing file) must error and not bump generations.
	if _, err := srv.Reload(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("reload from a missing file must fail")
	}
	for i, r := range srv.Stats().PerReplica {
		if r.Generation != 1 {
			t.Fatalf("replica %d generation %d after failed reload, want 1", i, r.Generation)
		}
	}
}

// TestReplicatedDrainCompletesAccepted: drain must finish every
// accepted request across all replicas, then reject new work.
func TestReplicatedDrainCompletesAccepted(t *testing.T) {
	srv := testReplicated(t, 2, 64, "odq", Config{MaxBatch: 4, BatchDeadline: 50 * time.Millisecond})
	srv.Start()

	const n = 10
	resps := make([]<-chan Result, n)
	for i := range resps {
		r, err := submit(srv, randInput(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = r
	}
	if err := srv.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		select {
		case <-r:
		default:
			t.Fatalf("request %d accepted before drain never answered", i)
		}
	}
	if _, err := submit(srv, randInput(99)); err != ErrDraining {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
}

// TestReplicatedStatusEndpoint: /v1/status must report the pool size
// and per-replica request totals.
func TestReplicatedStatusEndpoint(t *testing.T) {
	srv := testReplicated(t, 2, 65, "odq", Config{ModelName: "lenet5", MaxBatch: 4, BatchDeadline: time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		r, err := submit(srv, randInput(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		<-r
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
	if st.Replicas != 2 || len(st.PerReplica) != 2 {
		t.Fatalf("status replicas = %d (%d detailed), want 2", st.Replicas, len(st.PerReplica))
	}
	var total int64
	for i, r := range st.PerReplica {
		if r.Replica != i {
			t.Fatalf("per_replica[%d] labeled %d", i, r.Replica)
		}
		total += r.Served
	}
	if total != st.Served || st.Served != 4 {
		t.Fatalf("per-replica served sums to %d, status served %d, want 4", total, st.Served)
	}
}

// TestNewReplicatedValidation: an empty pool and mismatched models are
// rejected at construction.
func TestNewReplicatedValidation(t *testing.T) {
	if _, err := NewReplicated(nil, Config{InputC: 1, InputH: 28, InputW: 28}); err == nil {
		t.Fatal("empty session pool must be rejected")
	}
	a := testSession(t, 1, "odq")
	wide, err := models.Build("lenet5", models.Config{Classes: 7, Scale: 0.25, QATBits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := infer.NewSession(wide, "odq", infer.WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplicated([]*infer.Session{a, b},
		Config{InputC: 1, InputH: 28, InputW: 28}); err == nil {
		t.Fatal("replicas with different classifier widths must be rejected")
	}
	// A 4x4 input is too small for LeNet-5's 5x5 convs: the warmup
	// forward panics, and that must come back as an error.
	if _, err := NewReplicated([]*infer.Session{a}, Config{InputC: 1, InputH: 4, InputW: 4}); err == nil {
		t.Fatal("a panicking warmup forward must be rejected")
	}
}
