package dist

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// elasticTestOpts keeps the failure detector fast enough for tests but
// slow enough that scheduler hiccups do not fake a death.
var elasticTestOpts = ElasticOptions{
	JoinTimeout:       10 * time.Second,
	RegroupTimeout:    3 * time.Second,
	HeartbeatInterval: 50 * time.Millisecond,
	HeartbeatTimeout:  600 * time.Millisecond,
	MaxRegroups:       4,
}

// elasticContrib builds rank's shard of a groupSize-batch step: one
// deterministic gradient per owned batch index.
func elasticContrib(rank, world, groupSize, nParams int) []BatchGrad {
	var out []BatchGrad
	for idx := rank; idx < groupSize; idx += world {
		g := make([]float32, nParams)
		for i := range g {
			g[i] = float32(idx+1) * float32(i+1)
		}
		out = append(out, BatchGrad{Index: idx, Loss: float32(idx), Seen: 1, Grad: g})
	}
	return out
}

// elasticWant is the fold of every batch in [0, groupSize) as built by
// elasticContrib — independent of how the batches were sharded.
func elasticWant(groupSize, nParams int) []float32 {
	sum := make([]float32, nParams)
	for idx := 0; idx < groupSize; idx++ {
		for i := range sum {
			sum[i] += float32(idx+1) * float32(i+1)
		}
	}
	return sum
}

func checkSum(t *testing.T, who string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: sum has %d values, want %d", who, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sum[%d] = %g, want %g", who, i, got[i], want[i])
		}
	}
}

// freeAddr reserves an ephemeral port and releases it, so a test can
// dial an address BEFORE anything listens on it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// Regression for the start-order bug: a worker launched before the
// coordinator binds its socket must retry its dial and join normally,
// not fail permanently on the first connection refusal.
func TestDialRetriesUntilCoordinatorListens(t *testing.T) {
	addr := freeAddr(t)
	type joinRes struct {
		g   *Group
		err error
	}
	ch := make(chan joinRes, 1)
	w := NewElasticWorker(addr, 2, elasticTestOpts)
	defer w.Close()
	go func() {
		g, err := w.Join()
		ch <- joinRes{g, err}
	}()
	// Let the worker rack up a few refused dials first.
	time.Sleep(300 * time.Millisecond)
	coord, err := ElasticListen(addr, 2, elasticTestOpts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	if _, err := coord.Join(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("worker launched before the coordinator failed to join: %v", r.err)
	}
	if r.g.Rank() != 1 || r.g.World() != 2 {
		t.Fatalf("joined as rank %d of %d, want 1 of 2", r.g.Rank(), r.g.World())
	}
}

// helloPayload is a fresh joiner's hello as the elastic worker sends it,
// with the protocol version and world size under the test's control.
func helloPayload(proto, world uint32) []byte {
	return appendHello(nil, hello{proto: proto, world: world, rank: rankAssign})
}

// formErr runs a world-2 formation against one joining byte stream the
// test crafts, returning the coordinator's Join error.
func formErr(t *testing.T, send func(c net.Conn)) error {
	t.Helper()
	opts := elasticTestOpts
	opts.JoinTimeout = 500 * time.Millisecond
	coord, err := ElasticListen("127.0.0.1:0", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	hold := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := net.DialTimeout("tcp", coord.Addr(), joinTimeout)
		if err != nil {
			t.Errorf("dial %s: %v", coord.Addr(), err)
			return
		}
		defer c.Close()
		send(c)
		// Hold the conn open so a coordinator-side rejection, not our
		// exit, decides the outcome.
		<-hold
	}()
	_, jerr := coord.Join()
	close(hold)
	<-done
	return jerr
}

// TestJoinRejectsBadHellos: a hello from another protocol version or
// world size fails the formation loudly; bytes that are not a hello at
// all are dropped, so the joiner is never admitted and the formation
// runs out its window.
func TestJoinRejectsBadHellos(t *testing.T) {
	cases := []struct {
		name string
		send func(c net.Conn)
		want string
	}{
		{"wrong protocol version",
			func(c net.Conn) { WriteFrame(c, FrameHello, 0, helloPayload(protoVersion+1, 2)) }, //nolint:errcheck
			"protocol"},
		{"world size mismatch",
			func(c net.Conn) { WriteFrame(c, FrameHello, 0, helloPayload(protoVersion, 3)) }, //nolint:errcheck
			"world size"},
		{"not a hello frame",
			func(c net.Conn) { WriteFrame(c, FrameGrad, 0, []byte("gradient")) }, //nolint:errcheck
			"0 of 1 workers joined"},
		{"garbage bytes",
			func(c net.Conn) { c.Write([]byte("GET / HTTP/1.1\r\nHost: localhost\r\n\r\n")) }, //nolint:errcheck
			"0 of 1 workers joined"},
		{"stalled joiner",
			func(c net.Conn) { c.Write([]byte("ODQ")) }, //nolint:errcheck // less than one header, then silence
			"0 of 1 workers joined"},
	}
	for _, tc := range cases {
		err := formErr(t, tc.send)
		if err == nil {
			t.Errorf("%s: join succeeded, want rejection", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestJoinTimeout: a formation nobody joins must give up at JoinTimeout.
func TestJoinTimeout(t *testing.T) {
	opts := elasticTestOpts
	opts.JoinTimeout = 200 * time.Millisecond
	coord, err := ElasticListen("127.0.0.1:0", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	start := time.Now()
	if _, err := coord.Join(); err == nil {
		t.Fatal("Join with no joiners succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("Join did not honor its timeout")
	}
}

// The tentpole end to end at the dist layer: a three-member fleet loses
// one worker mid-step; the failure is classified as recoverable peer
// loss on every survivor, the fleet regroups at world 2 in a new
// membership epoch, and the post-regroup reduce folds correctly.
func TestElasticRegroupAfterWorkerDeath(t *testing.T) {
	coord, err := ElasticListen("127.0.0.1:0", 3, elasticTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const nParams = 16

	type survivorRes struct {
		world int
		epoch uint64
		sum   []float32
		err   error
	}
	survivorCh := make(chan survivorRes, 1)
	go func() {
		w := NewElasticWorker(coord.Addr(), 3, elasticTestOpts)
		defer w.Close()
		g, err := w.Join()
		if err != nil {
			survivorCh <- survivorRes{err: fmt.Errorf("join: %w", err)}
			return
		}
		red := NewReducer(g)
		sum := make([]float32, nParams)
		if _, err := red.Reduce(0, 3, elasticContrib(g.Rank(), 3, 3, nParams), sum); err != nil {
			survivorCh <- survivorRes{err: fmt.Errorf("step 0: %w", err)}
			return
		}
		// Step 1 dies with the peer; the survivor must see recoverable
		// peer loss, not a fatal protocol error.
		_, err = red.Reduce(1, 3, elasticContrib(g.Rank(), 3, 3, nParams), sum)
		if err == nil {
			survivorCh <- survivorRes{err: errors.New("step 1 succeeded with a dead peer")}
			return
		}
		if !IsPeerLost(err) {
			survivorCh <- survivorRes{err: fmt.Errorf("step 1 error is not peer loss: %w", err)}
			return
		}
		g2, err := w.Join()
		if err != nil {
			survivorCh <- survivorRes{err: fmt.Errorf("rejoin: %w", err)}
			return
		}
		red2 := NewReducer(g2)
		sum2 := make([]float32, nParams)
		if _, err := red2.Reduce(0, 2, elasticContrib(g2.Rank(), 2, 2, nParams), sum2); err != nil {
			survivorCh <- survivorRes{err: fmt.Errorf("post-regroup reduce: %w", err)}
			return
		}
		survivorCh <- survivorRes{world: g2.World(), epoch: g2.Epoch(), sum: sum2}
	}()

	victimDead := make(chan error, 1)
	go func() {
		w := NewElasticWorker(coord.Addr(), 3, elasticTestOpts)
		g, err := w.Join()
		if err != nil {
			victimDead <- err
			return
		}
		red := NewReducer(g)
		sum := make([]float32, nParams)
		if _, err := red.Reduce(0, 3, elasticContrib(g.Rank(), 3, 3, nParams), sum); err != nil {
			victimDead <- err
			return
		}
		// Hard death, no goodbye: the links just vanish (the in-process
		// stand-in for SIGKILL).
		g.Close()
		victimDead <- nil
	}()

	g, err := coord.Join()
	if err != nil {
		t.Fatalf("initial formation: %v", err)
	}
	if g.World() != 3 || g.Epoch() != 1 {
		t.Fatalf("formed world %d epoch %d, want 3/1", g.World(), g.Epoch())
	}
	red := NewReducer(g)
	sum := make([]float32, nParams)
	if _, err := red.Reduce(0, 3, elasticContrib(0, 3, 3, nParams), sum); err != nil {
		t.Fatalf("root step 0: %v", err)
	}
	checkSum(t, "root step 0", sum, elasticWant(3, nParams))
	if err := <-victimDead; err != nil {
		t.Fatalf("victim before death: %v", err)
	}
	_, err = red.Reduce(1, 3, elasticContrib(0, 3, 3, nParams), sum)
	if err == nil {
		t.Fatal("root step 1 succeeded with a dead peer")
	}
	if !IsPeerLost(err) {
		t.Fatalf("root step 1 error is not peer loss: %v", err)
	}
	g2, err := coord.Join()
	if err != nil {
		t.Fatalf("regroup: %v", err)
	}
	if g2.World() != 2 || g2.Epoch() != 2 {
		t.Fatalf("regrouped at world %d epoch %d, want 2/2", g2.World(), g2.Epoch())
	}
	red2 := NewReducer(g2)
	sum2 := make([]float32, nParams)
	if _, err := red2.Reduce(0, 2, elasticContrib(0, 2, 2, nParams), sum2); err != nil {
		t.Fatalf("root post-regroup reduce: %v", err)
	}
	checkSum(t, "root post-regroup", sum2, elasticWant(2, nParams))

	s := <-survivorCh
	if s.err != nil {
		t.Fatalf("survivor: %v", s.err)
	}
	if s.world != 2 || s.epoch != 2 {
		t.Fatalf("survivor regrouped at world %d epoch %d, want 2/2", s.world, s.epoch)
	}
	checkSum(t, "survivor post-regroup", s.sum, elasticWant(2, nParams))
}

// A peer that is merely SLOW — stalled well past the liveness deadline
// before contributing — must stay in the group: its heartbeat beacons
// keep the link's frame deadline fresh while it computes.
func TestElasticStalledPeerStaysAlive(t *testing.T) {
	coord, err := ElasticListen("127.0.0.1:0", 2, elasticTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const nParams = 8
	workerErr := make(chan error, 1)
	go func() {
		w := NewElasticWorker(coord.Addr(), 2, elasticTestOpts)
		defer w.Close()
		g, err := w.Join()
		if err != nil {
			workerErr <- err
			return
		}
		// Twice the liveness deadline with no protocol traffic at all.
		time.Sleep(2 * elasticTestOpts.HeartbeatTimeout)
		red := NewReducer(g)
		sum := make([]float32, nParams)
		_, err = red.Reduce(0, 2, elasticContrib(g.Rank(), 2, 2, nParams), sum)
		workerErr <- err
	}()
	g, err := coord.Join()
	if err != nil {
		t.Fatal(err)
	}
	red := NewReducer(g)
	sum := make([]float32, nParams)
	if _, err := red.Reduce(0, 2, elasticContrib(0, 2, 2, nParams), sum); err != nil {
		t.Fatalf("root reduce with a stalled peer: %v", err)
	}
	checkSum(t, "root", sum, elasticWant(2, nParams))
	if err := <-workerErr; err != nil {
		t.Fatalf("stalled worker: %v", err)
	}
}

// The mirror image: the ROOT takes longer than the liveness deadline to
// run its reduce while the worker is already parked waiting for the
// sum. The root's heartbeats must keep the worker's read deadline
// fresh, and the worker's receive path must skip them transparently.
func TestElasticHeartbeatDuringLongReduce(t *testing.T) {
	coord, err := ElasticListen("127.0.0.1:0", 2, elasticTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const nParams = 8
	workerErr := make(chan error, 1)
	go func() {
		w := NewElasticWorker(coord.Addr(), 2, elasticTestOpts)
		defer w.Close()
		g, err := w.Join()
		if err != nil {
			workerErr <- err
			return
		}
		red := NewReducer(g)
		sum := make([]float32, nParams)
		_, err = red.Reduce(0, 2, elasticContrib(g.Rank(), 2, 2, nParams), sum)
		workerErr <- err
	}()
	g, err := coord.Join()
	if err != nil {
		t.Fatal(err)
	}
	// The worker has sent its shard and is blocked on the sum for far
	// longer than the liveness deadline.
	time.Sleep(2 * elasticTestOpts.HeartbeatTimeout)
	red := NewReducer(g)
	sum := make([]float32, nParams)
	if _, err := red.Reduce(0, 2, elasticContrib(0, 2, 2, nParams), sum); err != nil {
		t.Fatalf("slow root reduce: %v", err)
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("worker waiting through a long reduce: %v", err)
	}
}

// Membership changes are serialized: a second Join while one is already
// collecting must be rejected, not queued.
func TestElasticRegroupDuringRegroupRejected(t *testing.T) {
	coord, err := ElasticListen("127.0.0.1:0", 2, elasticTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	firstErr := make(chan error, 1)
	go func() {
		g, err := coord.Join()
		if err == nil {
			defer g.Close()
		}
		firstErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // first Join is now collecting
	if _, err := coord.Join(); err == nil || !strings.Contains(err.Error(), "regroup already in progress") {
		t.Fatalf("concurrent Join: got %v, want regroup-in-progress rejection", err)
	}
	// A legitimate worker completes the first formation cleanly.
	w := NewElasticWorker(coord.Addr(), 2, elasticTestOpts)
	defer w.Close()
	if _, err := w.Join(); err != nil {
		t.Fatalf("worker join: %v", err)
	}
	if err := <-firstErr; err != nil {
		t.Fatalf("first Join: %v", err)
	}
}

// A hello announcing a membership epoch the coordinator has never
// formed is a stale or foreign joiner: rejected with an abort frame the
// worker treats as permanent (no pointless retry loop).
func TestElasticStaleEpochRejected(t *testing.T) {
	coord, err := ElasticListen("127.0.0.1:0", 2, elasticTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	formErr := make(chan error, 1)
	go func() {
		g, err := coord.Join()
		if err == nil {
			defer g.Close()
		}
		formErr <- err
	}()
	stale := NewElasticWorker(coord.Addr(), 2, elasticTestOpts)
	stale.epoch = 7 // claims to survive an epoch that never existed
	if _, err := stale.Join(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("stale-epoch join: got %v, want rejection", err)
	}
	w := NewElasticWorker(coord.Addr(), 2, elasticTestOpts)
	defer w.Close()
	if _, err := w.Join(); err != nil {
		t.Fatalf("legitimate join after stale rejection: %v", err)
	}
	if err := <-formErr; err != nil {
		t.Fatalf("formation: %v", err)
	}
}

// When the LAST peer dies, the regroup window closes empty and the
// coordinator continues solo at world 1 — capacity degrades to a
// single-worker run instead of the whole fleet dying.
func TestElasticShrinkToSolo(t *testing.T) {
	coord, err := ElasticListen("127.0.0.1:0", 2, elasticTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const nParams = 8
	died := make(chan error, 1)
	go func() {
		w := NewElasticWorker(coord.Addr(), 2, elasticTestOpts)
		g, err := w.Join()
		if err != nil {
			died <- err
			return
		}
		red := NewReducer(g)
		sum := make([]float32, nParams)
		if _, err := red.Reduce(0, 2, elasticContrib(g.Rank(), 2, 2, nParams), sum); err != nil {
			died <- err
			return
		}
		g.Close() // hard death
		died <- nil
	}()
	g, err := coord.Join()
	if err != nil {
		t.Fatal(err)
	}
	red := NewReducer(g)
	sum := make([]float32, nParams)
	if _, err := red.Reduce(0, 2, elasticContrib(0, 2, 2, nParams), sum); err != nil {
		t.Fatalf("step 0: %v", err)
	}
	if err := <-died; err != nil {
		t.Fatalf("peer before death: %v", err)
	}
	if _, err := red.Reduce(1, 2, elasticContrib(0, 2, 2, nParams), sum); err == nil {
		t.Fatal("step 1 succeeded with a dead peer")
	}
	g2, err := coord.Join()
	if err != nil {
		t.Fatalf("solo regroup: %v", err)
	}
	if g2.World() != 1 || g2.Epoch() != 2 {
		t.Fatalf("solo regroup gave world %d epoch %d, want 1/2", g2.World(), g2.Epoch())
	}
	red2 := NewReducer(g2)
	sum2 := make([]float32, nParams)
	if _, err := red2.Reduce(0, 2, elasticContrib(0, 1, 2, nParams), sum2); err != nil {
		t.Fatalf("solo reduce: %v", err)
	}
	checkSum(t, "solo", sum2, elasticWant(2, nParams))
}
