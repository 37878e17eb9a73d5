package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/tensor"
)

// testSession builds a small resident LeNet-5 session (1x28x28 inputs).
func testSession(t *testing.T, seed int64, scheme string) *infer.Session {
	t.Helper()
	net, err := models.Build("lenet5", models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := infer.NewSession(net, scheme, infer.WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func testServer(t *testing.T, seed int64, scheme string, cfg Config) *Server {
	t.Helper()
	cfg.InputC, cfg.InputH, cfg.InputW = 1, 28, 28
	srv, err := New(testSession(t, seed, scheme), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// submit admits x with no deadline and no request id.
func submit(srv *Server, x []float32) (<-chan Result, error) {
	return srv.SubmitCtx(context.Background(), x, "")
}

func randInput(seed int64) []float32 {
	x := tensor.New(1, 1, 28, 28)
	tensor.NewRNG(seed).FillUniform(x, 0, 1)
	return x.Data
}

// TestDeadlineFlush: a lone request must be flushed by the batch
// deadline, not wait for MaxBatch peers that never come.
func TestDeadlineFlush(t *testing.T) {
	srv := testServer(t, 1, "odq", Config{MaxBatch: 64, BatchDeadline: 30 * time.Millisecond})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck

	start := time.Now()
	resp, err := submit(srv, randInput(7))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-resp:
		if res.BatchSize != 1 {
			t.Fatalf("lone request got batch size %d", res.BatchSize)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline flush never happened")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lone request took %v", elapsed)
	}
}

// TestMaxBatchFlush: with a deliberately huge deadline, MaxBatch arrivals
// must flush immediately.
func TestMaxBatchFlush(t *testing.T) {
	const maxBatch = 4
	srv := testServer(t, 2, "odq", Config{MaxBatch: maxBatch, BatchDeadline: 10 * time.Minute})
	srv.Start()

	start := time.Now()
	resps := make([]<-chan Result, maxBatch)
	for i := range resps {
		r, err := submit(srv, randInput(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = r
	}
	for i, r := range resps {
		select {
		case res := <-r:
			if res.BatchSize != maxBatch {
				t.Fatalf("request %d: batch size %d, want %d (max-batch flush)", i, res.BatchSize, maxBatch)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("max-batch flush never happened (stuck on the 10-minute deadline)")
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("max-batch flush took %v", elapsed)
	}
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSingleRequestLatencyBound: a lone in-flight request's end-to-end
// latency is bounded by deadline + one executor pass — it can never wait
// on other traffic.
func TestSingleRequestLatencyBound(t *testing.T) {
	const deadline = 50 * time.Millisecond
	srv := testServer(t, 3, "odq", Config{MaxBatch: 64, BatchDeadline: deadline})
	srv.Start()
	defer srv.Drain(10 * time.Second) //nolint:errcheck

	// Warm the pass once so the measured request doesn't pay first-call
	// costs.
	r0, err := submit(srv, randInput(100))
	if err != nil {
		t.Fatal(err)
	}
	<-r0

	start := time.Now()
	resp, err := submit(srv, randInput(101))
	if err != nil {
		t.Fatal(err)
	}
	res := <-resp
	elapsed := time.Since(start)
	if res.BatchSize != 1 {
		t.Fatalf("lone request batched with %d peers", res.BatchSize-1)
	}
	// Generous bound for race-detector CI: the point is "deadline plus
	// one pass", not "10 minutes".
	if elapsed > deadline+2*time.Second {
		t.Fatalf("lone request latency %v exceeds deadline+pass bound", elapsed)
	}
	if res.Latency <= 0 {
		t.Fatal("latency must be measured")
	}
}

// TestQueueFullBackpressure: the bounded queue rejects exactly the
// overflow, and accepted requests survive. The batcher is started only
// after filling the queue so the test is deterministic.
func TestQueueFullBackpressure(t *testing.T) {
	srv := testServer(t, 4, "int8", Config{MaxBatch: 8, BatchDeadline: time.Millisecond, QueueDepth: 2})

	r1, err := submit(srv, randInput(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := submit(srv, randInput(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(srv, randInput(3)); err != ErrQueueFull {
		t.Fatalf("overflow got %v, want ErrQueueFull", err)
	}
	if srv.Stats().Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", srv.Stats().Rejected)
	}

	srv.Start()
	for _, r := range []<-chan Result{r1, r2} {
		select {
		case <-r:
		case <-time.After(30 * time.Second):
			t.Fatal("accepted request never served")
		}
	}
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestBadInputShapeRejected: admission validates the input length.
func TestBadInputShapeRejected(t *testing.T) {
	srv := testServer(t, 5, "float", Config{})
	if _, err := submit(srv, make([]float32, 3)); err == nil {
		t.Fatal("wrong-length input must be rejected at admission")
	}
}

// TestDrainCompletesAcceptedRejectsNew: drain must (a) finish every
// accepted request even though the batch deadline is far away, (b)
// reject new submissions, (c) return promptly.
func TestDrainCompletesAcceptedRejectsNew(t *testing.T) {
	srv := testServer(t, 6, "odq", Config{MaxBatch: 64, BatchDeadline: 10 * time.Minute})
	srv.Start()

	const accepted = 5
	resps := make([]<-chan Result, accepted)
	for i := range resps {
		r, err := submit(srv, randInput(int64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = r
	}

	start := time.Now()
	if err := srv.Drain(time.Minute); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drain waited %v (must flush on close, not wait out the deadline)", elapsed)
	}
	for i, r := range resps {
		select {
		case <-r:
		default:
			t.Fatalf("accepted request %d not completed by drain", i)
		}
	}
	if _, err := submit(srv, randInput(99)); err != ErrDraining {
		t.Fatalf("post-drain submit got %v, want ErrDraining", err)
	}
	// Idempotent drain.
	if err := srv.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClientsParity is the acceptance-criteria pair in one:
// 8 concurrent clients hammer the batched server (under -race in the
// verify gate), and every answer must be bit-identical to running that
// request alone on a fresh per-request session — dynamic batching may
// never change an answer. Run for both the flagship ODQ scheme and a
// static baseline.
func TestConcurrentClientsParity(t *testing.T) {
	for _, scheme := range []string{"odq", "int8"} {
		t.Run(scheme, func(t *testing.T) {
			const clients, rounds = 8, 3
			srv := testServer(t, 7, scheme, Config{MaxBatch: clients, BatchDeadline: 20 * time.Millisecond})
			srv.Start()

			type answer struct {
				seed   int64
				logits []float32
			}
			answers := make(chan answer, clients*rounds)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						seed := int64(1000 + c*rounds + round)
						resp, err := submit(srv, randInput(seed))
						if err != nil {
							t.Errorf("client %d: %v", c, err)
							return
						}
						res := <-resp
						answers <- answer{seed: seed, logits: res.Logits}
					}
				}(c)
			}
			wg.Wait()
			close(answers)
			if err := srv.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}

			// Per-request reference: a fresh session on identical weights,
			// fed one sample at a time.
			ref := testSession(t, 7, scheme)
			for a := range answers {
				x := tensor.New(1, 1, 28, 28)
				copy(x.Data, randInput(a.seed))
				want := ref.Forward(x)
				if len(a.logits) != want.Shape[1] {
					t.Fatalf("logit width %d vs %d", len(a.logits), want.Shape[1])
				}
				for j, v := range a.logits {
					if v != want.Data[j] {
						t.Fatalf("scheme %s seed %d: batched logit %d = %g, per-request = %g (must be bit-identical)",
							scheme, a.seed, j, v, want.Data[j])
					}
				}
			}
		})
	}
}

// TestConcurrentLoadBatchesRequests: under 8 concurrent clients the mean
// batch size must exceed 1 — the dynamic batcher actually batches.
func TestConcurrentLoadBatchesRequests(t *testing.T) {
	const clients, rounds = 8, 4
	srv := testServer(t, 8, "odq", Config{MaxBatch: clients, BatchDeadline: 100 * time.Millisecond})
	srv.Start()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				resp, err := submit(srv, randInput(int64(c*100+round)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				<-resp
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Served != clients*rounds {
		t.Fatalf("served %d, want %d", st.Served, clients*rounds)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch size %.2f under %d concurrent clients — batcher never batched", st.MeanBatch, clients)
	}
	t.Logf("served %d requests in %d batches (mean batch %.2f)", st.Served, st.Batches, st.MeanBatch)
}
