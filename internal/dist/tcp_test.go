package dist

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

const joinTimeout = 5 * time.Second

// joinTCP brings up a full TCP group through the elastic join on an
// ephemeral port and returns one *Group per rank (group rank order, which
// is arrival order for the joiners).
func joinTCP(t *testing.T, world int) []*Group {
	t.Helper()
	opts := ElasticOptions{JoinTimeout: joinTimeout}
	coord, err := ElasticListen("127.0.0.1:0", world, opts)
	if err != nil {
		t.Fatalf("ElasticListen: %v", err)
	}
	joined := make(chan *Group, world-1)
	errs := make(chan error, world-1)
	for r := 1; r < world; r++ {
		go func() {
			g, err := NewElasticWorker(coord.Addr(), world, opts).Join()
			if err != nil {
				errs <- err
				return
			}
			joined <- g
		}()
	}
	groups := make([]*Group, world)
	if groups[0], err = coord.Join(); err != nil {
		t.Fatalf("coordinator join: %v", err)
	}
	for r := 1; r < world; r++ {
		select {
		case g := <-joined:
			groups[g.Rank()] = g
		case err := <-errs:
			t.Fatalf("worker join: %v", err)
		}
	}
	t.Cleanup(func() {
		for _, g := range groups {
			g.Close()
		}
		coord.Close()
	})
	return groups
}

// TestTCPReduceMatchesLoopback: the same reduce over real sockets must
// produce the bit-identical sum the loopback transport produces.
func TestTCPReduceMatchesLoopback(t *testing.T) {
	const world, groupSize, gradLen = 3, 5, 257
	grads := make([][]float32, groupSize)
	for j := range grads {
		g := make([]float32, gradLen)
		for i := range g {
			g[i] = float32(j*1000+i) * 0.001
		}
		grads[j] = g
	}
	want := refFold(grads, nil, gradLen)

	groups := joinTCP(t, world)
	sums := make([][]float32, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			red := NewReducer(groups[r])
			var local []BatchGrad
			for j := r; j < groupSize; j += world {
				local = append(local, BatchGrad{Index: j, Grad: grads[j], Seen: 1})
			}
			sums[r] = make([]float32, gradLen)
			_, errs[r] = red.Reduce(0, groupSize, local, sums[r])
		}(r)
	}
	wg.Wait()
	for r := 0; r < world; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !f32Equal(sums[r], want) {
			t.Fatalf("rank %d: TCP sum differs from reference fold", r)
		}
	}
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, joinTimeout)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return raw
}

// rawRoot returns rank 0's group over one real loopback TCP link —
// assembled with NewGroup over the accepted socket, so no join handshake
// and no liveness — and the raw worker end of that link, so fault tests
// can speak frames as rank 1 byte by byte.
func rawRoot(t *testing.T) (*Group, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker := dialRaw(t, ln.Addr().String())
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup(0, 2, []Conn{nil, NewStreamConn(raw)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		worker.Close()
		g.Close()
	})
	return g, worker
}

// corruptConn wraps a net.Conn and corrupts the Nth written byte with a
// bit flip — simulating wire corruption below the frame codec.
type corruptConn struct {
	net.Conn
	mu      sync.Mutex
	written int
	target  int // byte offset to corrupt
	bit     int
}

func (c *corruptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	start := c.written
	c.written += len(p)
	c.mu.Unlock()
	if c.target >= start && c.target < start+len(p) {
		p = faultinject.BitFlip(p, (c.target-start)*8+c.bit)
	}
	return c.Conn.Write(p)
}

// TestTCPReduceDetectsWireCorruption: a bit flipped inside a worker's
// gradient bytes in flight must fail the reduce on both sides — never
// produce a silently wrong sum.
func TestTCPReduceDetectsWireCorruption(t *testing.T) {
	// Corrupt a byte deep inside the worker's first gradient frame
	// (past the 21-byte header: inside the payload).
	for _, target := range []int{frameHeaderLen + 30, frameHeaderLen + 64} {
		rootGroup, raw := rawRoot(t)
		grad := make([]float32, 64)
		for i := range grad {
			grad[i] = float32(i)
		}
		var workerErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn := NewStreamConn(&corruptConn{Conn: raw, target: target, bit: 3})
			g, _ := NewGroup(1, 2, []Conn{conn, nil})
			red := NewReducer(g)
			defer red.Close()
			sum := make([]float32, len(grad))
			_, workerErr = red.Reduce(0, 2, []BatchGrad{{Index: 1, Grad: grad}}, sum)
		}()
		root := NewReducer(rootGroup)
		sum := make([]float32, len(grad))
		_, rootErr := root.Reduce(0, 2, []BatchGrad{{Index: 0, Grad: grad}}, sum)
		root.Close()
		<-done
		if rootErr == nil {
			t.Fatalf("target %d: root reduce over a corrupted wire completed cleanly", target)
		}
		if workerErr == nil {
			t.Fatalf("target %d: worker reduce over a corrupted wire completed cleanly", target)
		}
	}
}

// TestTCPReduceDetectsDeadPeer: a worker dying mid-gather (stream
// truncation at the transport level) must fail the root loudly.
func TestTCPReduceDetectsDeadPeer(t *testing.T) {
	rootGroup, raw := rawRoot(t)
	grad := []float32{1, 2, 3, 4}
	// Send one gradient frame, then die before grad-end: the root sees
	// the stream cut mid-step.
	conn := NewStreamConn(raw)
	conn.Send(FrameGrad, appendGradPayload(nil, 0, 0, &BatchGrad{Index: 1, Grad: grad})) //nolint:errcheck
	conn.Close()
	root := NewReducer(rootGroup)
	sum := make([]float32, len(grad))
	if _, err := root.Reduce(0, 2, []BatchGrad{{Index: 0, Grad: grad}}, sum); err == nil {
		t.Fatal("reduce with a dead peer completed cleanly")
	}
}

// TestTCPReduceDetectsDuplicatedFrame: a replayed gradient frame carries
// a stale sequence number and must be rejected at the codec layer.
func TestTCPReduceDetectsDuplicatedFrame(t *testing.T) {
	rootGroup, raw := rawRoot(t)
	grad := []float32{1, 2, 3, 4}
	enc := appendGradPayload(nil, 0, 0, &BatchGrad{Index: 1, Grad: grad})
	// Replay: the same frame (same seq) twice — a duplicated segment.
	WriteFrame(raw, FrameGrad, 0, enc) //nolint:errcheck
	WriteFrame(raw, FrameGrad, 0, enc) //nolint:errcheck
	root := NewReducer(rootGroup)
	sum := make([]float32, len(grad))
	_, rootErr := root.Reduce(0, 2, []BatchGrad{{Index: 0, Grad: grad}}, sum)
	if rootErr == nil || !strings.Contains(rootErr.Error(), "sequence") {
		t.Fatalf("duplicated frame: err = %v, want sequence violation", rootErr)
	}
}

// TestTCPReduceDetectsReorderedFrames: frames written out of sequence
// order must be rejected at the codec layer.
func TestTCPReduceDetectsReorderedFrames(t *testing.T) {
	rootGroup, raw := rawRoot(t)
	grad := []float32{1, 2, 3, 4}
	g := appendGradPayload(nil, 0, 0, &BatchGrad{Index: 1, Grad: grad})
	e := appendEndPayload(nil, 0, 0, 1, nil)
	// Swap the wire order of seq 0 and seq 1.
	WriteFrame(raw, FrameGradEnd, 1, e) //nolint:errcheck
	WriteFrame(raw, FrameGrad, 0, g)    //nolint:errcheck
	root := NewReducer(rootGroup)
	sum := make([]float32, len(grad))
	_, rootErr := root.Reduce(0, 2, []BatchGrad{{Index: 0, Grad: grad}}, sum)
	if rootErr == nil || !strings.Contains(rootErr.Error(), "sequence") {
		t.Fatalf("reordered frames: err = %v, want sequence violation", rootErr)
	}
}
