package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

var (
	mFramesSent = telemetry.GetCounter("dist.frames_sent")
	mFramesRecv = telemetry.GetCounter("dist.frames_recv")
	mBytesSent  = telemetry.GetCounter("dist.bytes_sent")
	mFrameErrs  = telemetry.GetCounter("dist.frame_errors")
	mHeartbeats = telemetry.GetCounter("dist.heartbeats")
)

// Conn is one reliable, ordered frame link to a peer worker. Send is
// safe for concurrent use; Recv must have a single consumer (the reduce
// protocol has exactly one per link).
type Conn interface {
	Send(t FrameType, payload []byte) error
	Recv() (FrameType, []byte, error)
	Close() error
}

// frameTimeouter is optionally implemented by Conns that can bound
// every frame exchange with a deadline: once armed, each Recv must
// yield a frame within recv and each Send must complete within send.
// The elastic failure detector arms it on every link — heartbeats
// guarantee frame traffic on a live link, so an expired deadline means
// the peer (or the path to it) is gone, not merely slow.
type frameTimeouter interface {
	SetFrameTimeouts(recv, send time.Duration)
}

// streamConn frames an underlying byte stream — a TCP connection in
// production, a net.Pipe end for the in-process loopback — with
// per-direction sequence numbers so duplicated, dropped or reordered
// frames are detected at Recv.
type streamConn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader

	// nc is rwc when the stream supports deadlines (net.TCPConn and
	// net.Pipe both do); nil otherwise. recvTimeout/sendTimeout of 0
	// leave the stream fully blocking, as on loopback and hand-assembled
	// links.
	nc          net.Conn
	recvTimeout time.Duration
	sendTimeout time.Duration

	sendMu  sync.Mutex
	sendSeq uint64
	recvSeq uint64
}

// NewStreamConn wraps a byte stream in the frame codec.
func NewStreamConn(rwc io.ReadWriteCloser) Conn {
	c := &streamConn{rwc: rwc, br: bufio.NewReader(rwc)}
	if nc, ok := rwc.(net.Conn); ok {
		c.nc = nc
	}
	return c
}

// SetFrameTimeouts arms per-frame deadlines (0 disables a direction).
// No-op when the underlying stream cannot carry deadlines.
func (c *streamConn) SetFrameTimeouts(recv, send time.Duration) {
	if c.nc == nil {
		return
	}
	c.sendMu.Lock()
	c.recvTimeout = recv
	c.sendTimeout = send
	c.sendMu.Unlock()
}

func (c *streamConn) Send(t FrameType, payload []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.sendTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.sendTimeout)) //nolint:errcheck // best-effort deadline
	}
	if err := WriteFrame(c.rwc, t, c.sendSeq, payload); err != nil {
		mFrameErrs.Inc()
		return err
	}
	c.sendSeq++
	if telemetry.Enabled() {
		mFramesSent.Inc()
		mBytesSent.Add(int64(frameHeaderLen + len(payload)))
	}
	return nil
}

func (c *streamConn) Recv() (FrameType, []byte, error) {
	if c.nc != nil {
		c.sendMu.Lock()
		rt := c.recvTimeout
		c.sendMu.Unlock()
		if rt > 0 {
			// The deadline covers the whole frame, so it must exceed the
			// largest frame's transfer time; heartbeats re-arm it at every
			// Recv in the liveness loop.
			c.nc.SetReadDeadline(time.Now().Add(rt)) //nolint:errcheck // best-effort deadline
		}
	}
	t, payload, err := ReadFrame(c.br, c.recvSeq)
	if err != nil {
		if err != io.EOF {
			mFrameErrs.Inc()
		}
		return 0, nil, err
	}
	c.recvSeq++
	if telemetry.Enabled() {
		mFramesRecv.Inc()
	}
	return t, payload, nil
}

func (c *streamConn) Close() error { return c.rwc.Close() }

// Group is one worker's membership in a reduce group: its rank, the
// world size, and its frame links in a star topology — the root (rank 0)
// holds one conn per peer, every other rank holds a single conn to the
// root.
type Group struct {
	rank    int
	world   int
	traceID uint64 // run correlation id shared by the whole group (0 = untraced)
	epoch   uint64 // membership epoch (0 for loopback and NewGroup groups)
	conns   []Conn // indexed by peer rank; nil where no link exists

	// Liveness config, set by startLiveness for TCP-joined groups: hbTimeout
	// > 0 makes the reducer treat transport failures and frame-deadline
	// expiries as recoverable peer loss instead of fatal errors.
	hbTimeout time.Duration
	hbStop    chan struct{}
	hbWG      sync.WaitGroup
	closeOnce sync.Once
	abortOnce sync.Once
	closeErr  error
}

// NewGroup assembles a group from pre-established links. conns is
// indexed by peer rank: the root passes one conn per non-root rank, a
// non-root rank passes only conns[0]. Exposed so tests can splice
// fault-injecting links into the topology.
func NewGroup(rank, world int, conns []Conn) (*Group, error) {
	if world < 1 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("dist: invalid rank %d for world size %d", rank, world)
	}
	if len(conns) != world {
		return nil, fmt.Errorf("dist: got %d conn slots, want %d (one per rank)", len(conns), world)
	}
	return &Group{rank: rank, world: world, conns: conns}, nil
}

// Rank returns this worker's rank in [0, World).
func (g *Group) Rank() int { return g.rank }

// World returns the number of workers in the group.
func (g *Group) World() int { return g.world }

// TraceID returns the run correlation id the group was joined under:
// the coordinator's run id after a TCP join, the process's run id for
// loopback groups, 0 for hand-assembled (NewGroup) test groups.
func (g *Group) TraceID() uint64 { return g.traceID }

// Epoch returns the membership epoch: 0 for loopback and NewGroup
// groups, and the coordinator-assigned incarnation counter for TCP-joined
// ones — it increments on every regroup and stale-epoch rejoins are
// rejected.
func (g *Group) Epoch() uint64 { return g.epoch }

// HeartbeatTimeout returns the liveness deadline armed on this group's
// links, or 0 for a loopback or NewGroup group with no failure detector.
func (g *Group) HeartbeatTimeout() time.Duration { return g.hbTimeout }

// conn returns the link to peer, which must exist in this topology.
func (g *Group) conn(peer int) Conn {
	c := g.conns[peer]
	if c == nil {
		panic(fmt.Sprintf("dist: rank %d has no link to rank %d", g.rank, peer))
	}
	return c
}

// startLiveness turns the group's links into a failure detector: every
// link is armed with read/write frame deadlines of timeout, and a
// background sender per link emits a heartbeat frame every interval so
// a live peer always has traffic inside the deadline — even while both
// sides compute between protocol frames. Detection latency is bounded
// by timeout; a peer that is merely slow keeps its link alive through
// the heartbeats alone.
func (g *Group) startLiveness(interval, timeout time.Duration) {
	if interval <= 0 || timeout <= 0 {
		return
	}
	g.hbTimeout = timeout
	g.hbStop = make(chan struct{})
	var hb [8]byte
	binary.LittleEndian.PutUint64(hb[:], g.traceID)
	for _, c := range g.conns {
		if c == nil {
			continue
		}
		if tc, ok := c.(frameTimeouter); ok {
			tc.SetFrameTimeouts(timeout, timeout)
		}
		g.hbWG.Add(1)
		go func(c Conn) {
			defer g.hbWG.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-g.hbStop:
					return
				case <-tick.C:
					// A send error means the link is down; the protocol path
					// discovers the same thing on its own deadline, so the
					// beacon just retires quietly.
					if err := c.Send(FrameHeartbeat, hb[:]); err != nil {
						return
					}
					mHeartbeats.Inc()
				}
			}
		}(c)
	}
}

// Abort abandons the in-flight step on purpose: a best-effort abort
// frame (carrying reason) tells every peer to stop waiting and rejoin,
// then the links close. Idempotent, and safe to call concurrently with
// Close.
func (g *Group) Abort(reason string) {
	g.abortOnce.Do(func() {
		payload := make([]byte, 8, 8+len(reason))
		binary.LittleEndian.PutUint64(payload, g.traceID)
		payload = append(payload, reason...)
		for _, c := range g.conns {
			if c == nil {
				continue
			}
			c.Send(FrameAbort, payload) //nolint:errcheck // best-effort: the close below fails peers loudly anyway
		}
	})
	g.Close() //nolint:errcheck // abort is already the error path
}

// Close stops the heartbeat senders and closes every link of this group
// member. Idempotent: the reducer's error path, Abort and the owner's
// deferred Close may all race it.
func (g *Group) Close() error {
	g.closeOnce.Do(func() {
		if g.hbStop != nil {
			close(g.hbStop)
		}
		for _, c := range g.conns {
			if c == nil {
				continue
			}
			if err := c.Close(); err != nil && g.closeErr == nil {
				g.closeErr = err
			}
		}
		// The senders exit on hbStop or on their first send error against
		// the closed links; wait so no goroutine outlives the group.
		g.hbWG.Wait()
	})
	return g.closeErr
}

// Loopback wires a world of in-process workers into a star topology over
// synchronous in-memory pipes. The pipes run the exact frame codec the
// TCP transport uses, so local multi-worker runs and tests exercise the
// production framing, checksumming and sequence tracking.
func Loopback(world int) ([]*Group, error) {
	if world < 1 {
		return nil, fmt.Errorf("dist: world size %d, want >= 1", world)
	}
	// All loopback ranks live in this process and share its run id.
	runID := telemetry.EnsureTraceID()
	groups := make([]*Group, world)
	root := &Group{rank: 0, world: world, traceID: runID, conns: make([]Conn, world)}
	groups[0] = root
	for r := 1; r < world; r++ {
		a, b := net.Pipe()
		root.conns[r] = NewStreamConn(a)
		g := &Group{rank: r, world: world, traceID: runID, conns: make([]Conn, world)}
		g.conns[0] = NewStreamConn(b)
		groups[r] = g
	}
	return groups, nil
}
