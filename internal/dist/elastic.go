// Elastic membership: the one TCP join.
//
// Every TCP fleet forms through ElasticListen/NewElasticWorker: the
// coordinator assigns ranks in arrival order and arms heartbeat
// liveness on every link. A caller that joins once and trains with
// plain train.Fit gets a fixed fleet in which a lost peer is fatal. The
// self-healing caller (train.FitElastic) calls Join again after a
// failure: the coordinator keeps its listener open for the life of the
// run and adds a membership epoch, so when the failure detector
// (heartbeat deadlines, reduce.go) declares a peer dead, every survivor
// abandons the in-flight step, the coordinator re-runs the join
// handshake at whatever world size shows up — assigning fresh ranks in
// arrival order — and training resumes from the last durable checkpoint.
// Because the training trajectory depends only on the sync-group size
// (which travels in the checkpoint), the post-regroup run is
// byte-identical to a fresh run at the surviving worker count.
//
// Failure-model boundaries, on purpose:
//
//   - The coordinator (rank 0) is the single point of failure: it owns
//     the listener and the checkpoint writes. Workers that lose it
//     retry their rejoin until the window closes, then exit.
//   - Only transport-level failures (broken links, expired liveness
//     deadlines, abort frames) are membership events. Protocol
//     violations — desynchronized steps, corrupt payloads that pass the
//     CRC, mismatched architectures — stay fatal: regrouping cannot fix
//     a logic bug, and retrying it would mask one.
//   - A false-positive death (live peer declared dead, e.g. a network
//     partition) costs that worker: survivors regroup without it and
//     its late rejoin is rejected as a stale epoch. Training continues
//     correctly at the smaller world; capacity, not correctness, is
//     what degrades.
package dist

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/olog"
)

var (
	mPeerFailures = telemetry.GetCounter("dist.peer_failures")
	mRegroups     = telemetry.GetCounter("dist.regroups")
)

// PeerLostError marks a reduce failure as a MEMBERSHIP event — the peer
// (or the path to it) is gone — rather than a protocol violation.
// train.FitElastic regroups on it; everything else stays fatal.
type PeerLostError struct {
	// Rank is the peer declared lost (as ranked in the failed epoch).
	Rank int
	// Err is the underlying transport failure.
	Err error
}

func (e *PeerLostError) Error() string {
	return fmt.Sprintf("dist: peer rank %d lost: %v", e.Rank, e.Err)
}

func (e *PeerLostError) Unwrap() error { return e.Err }

// IsPeerLost reports whether err represents recoverable peer loss.
func IsPeerLost(err error) bool {
	var pl *PeerLostError
	return errors.As(err, &pl)
}

// Membership hands out group incarnations: Join blocks until a group
// forms and each subsequent Join forms the next epoch (the regroup).
// Implemented by ElasticCoordinator (rank 0) and ElasticWorker.
type Membership interface {
	Join() (*Group, error)
	Close() error
}

// ElasticOptions tunes the self-healing membership layer. Zero values
// take the stated defaults.
type ElasticOptions struct {
	// JoinTimeout bounds the initial fleet formation (default 60s).
	JoinTimeout time.Duration
	// RegroupTimeout bounds how long a regroup waits for survivors to
	// rejoin, and how long a survivor keeps retrying its rejoin
	// (default 15s).
	RegroupTimeout time.Duration
	// HeartbeatInterval is the liveness beacon period (default 500ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the failure detector's deadline: a link with no
	// frames for this long is declared dead. Must comfortably exceed
	// HeartbeatInterval and the largest frame's transfer time
	// (default 5s).
	HeartbeatTimeout time.Duration
	// MaxRegroups caps membership churn: the run fails rather than
	// regroup a (default 8th) time, bounding a crash-looping fleet.
	MaxRegroups int
}

func (o ElasticOptions) withDefaults() ElasticOptions {
	if o.JoinTimeout <= 0 {
		o.JoinTimeout = 60 * time.Second
	}
	if o.RegroupTimeout <= 0 {
		o.RegroupTimeout = 15 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.MaxRegroups <= 0 {
		o.MaxRegroups = 8
	}
	return o
}

// ElasticCoordinator is rank 0's membership handle: it keeps the join
// listener open for the whole run so survivors can rejoin after a
// failure.
type ElasticCoordinator struct {
	ln    net.Listener
	world int // configured initial world
	opts  ElasticOptions

	runID    uint64
	epoch    uint64 // current membership epoch (0 = not yet formed)
	curWorld int    // world of the current epoch
	regroups int
	g        *Group
	joining  atomic.Bool
}

// ElasticListen binds the coordinator address for an elastic run of the
// given initial world size. The listener stays open across regroups;
// Close it when the run ends.
func ElasticListen(addr string, world int, opts ElasticOptions) (*ElasticCoordinator, error) {
	if world < 1 {
		return nil, fmt.Errorf("dist: elastic world size %d, want >= 1", world)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: elastic coordinator listen: %w", err)
	}
	return &ElasticCoordinator{ln: ln, world: world, opts: opts.withDefaults(), runID: telemetry.EnsureTraceID()}, nil
}

// Addr returns the bound listen address.
func (c *ElasticCoordinator) Addr() string { return c.ln.Addr().String() }

// Close tears the membership down: current group aborted, listener
// closed.
func (c *ElasticCoordinator) Close() error {
	if c.g != nil {
		c.g.Abort("coordinator shutting down")
		c.g = nil
	}
	return c.ln.Close()
}

// Join forms the next membership epoch and returns rank 0's group: the
// initial fleet on the first call, a regroup of the survivors on every
// later one. Regroup-during-regroup is rejected — membership changes
// are serialized by construction, a concurrent second Join is a caller
// bug, not a queueable request.
func (c *ElasticCoordinator) Join() (*Group, error) {
	if !c.joining.CompareAndSwap(false, true) {
		return nil, errors.New("dist: regroup already in progress (concurrent Join on the elastic coordinator)")
	}
	defer c.joining.Store(false)
	if c.g != nil {
		// Abandon the failed epoch: the abort unblocks every survivor
		// still parked in the old protocol so it can come rejoin.
		c.g.Abort("membership epoch abandoned, rejoin")
		c.g = nil
	}
	if c.epoch == 0 {
		return c.form()
	}
	return c.regroup()
}

// accept takes one pending connection and reads its hello under the
// given deadline. Transport-level failures on the PENDING conn (dial
// abandoned, half-open socket) return err == nil with a nil conn: the
// membership loop drops it and keeps collecting.
func (c *ElasticCoordinator) accept(deadline time.Time) (Conn, hello, error) {
	if tl, ok := c.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline) //nolint:errcheck // best-effort timeout
	}
	raw, err := c.ln.Accept()
	if err != nil {
		return nil, hello{}, err
	}
	raw.SetReadDeadline(deadline) //nolint:errcheck // best-effort timeout
	conn := NewStreamConn(raw)
	h, err := recvHello(conn)
	if err != nil {
		// A broken pending conn is that worker's problem (it will retry);
		// the collection window goes on.
		conn.Close()
		return nil, hello{}, nil
	}
	raw.SetReadDeadline(time.Time{}) //nolint:errcheck // joined: back to blocking reads
	return conn, h, nil
}

// reject answers a hello that cannot join this epoch with an abort
// frame carrying the reason, then drops the conn.
func (c *ElasticCoordinator) reject(conn Conn, reason string) {
	payload := make([]byte, 8, 8+len(reason))
	for i := range payload {
		payload[i] = 0
	}
	payload = append(payload, reason...)
	conn.Send(FrameAbort, payload) //nolint:errcheck // best-effort courtesy
	conn.Close()
}

// form gathers the initial fleet: world-1 fresh joiners, ranks assigned
// in arrival order.
func (c *ElasticCoordinator) form() (*Group, error) {
	deadline := time.Now().Add(c.opts.JoinTimeout)
	var conns []Conn
	cleanup := func() {
		for _, conn := range conns {
			conn.Close()
		}
	}
	for len(conns) < c.world-1 {
		conn, h, err := c.accept(deadline)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("dist: %d of %d workers joined before error: %w", len(conns), c.world-1, err)
		}
		if conn == nil {
			continue
		}
		// A misconfigured fleet must not start training: another protocol
		// version or world size fails the formation on both sides.
		reason := protoMismatch(h)
		if reason == "" && h.world != 0 && int(h.world) != c.world {
			reason = fmt.Sprintf("worker configured for world size %d, coordinator for %d", h.world, c.world)
		}
		if reason != "" {
			c.reject(conn, reason)
			cleanup()
			return nil, errors.New("dist: " + reason)
		}
		if h.epoch != 0 {
			c.reject(conn, fmt.Sprintf("membership epoch %d unknown, this run has not formed yet", h.epoch))
			continue
		}
		conns = append(conns, conn)
	}
	return c.seal(conns)
}

// regroup collects the survivors of a failed epoch. At most
// prevWorld-2 non-root survivors can exist (at least one peer died, or
// we would not be here), so collection stops early once they have all
// rejoined; otherwise the window closes at RegroupTimeout. A two-member
// group keeps a short grace window instead, so a survivor of a
// false-positive detection still has a chance to make the next epoch.
func (c *ElasticCoordinator) regroup() (*Group, error) {
	if c.regroups >= c.opts.MaxRegroups {
		return nil, fmt.Errorf("dist: %d regroups exhausted the membership budget (MaxRegroups=%d): fleet is crash-looping",
			c.regroups, c.opts.MaxRegroups)
	}
	c.regroups++
	prevEpoch := c.epoch
	maxSurvivors := c.curWorld - 2
	window := c.opts.RegroupTimeout
	if maxSurvivors <= 0 {
		// Nobody CAN rejoin unless the detection was a false positive;
		// give that one case a brief grace window, then continue solo.
		maxSurvivors = 1
		if grace := time.Second; window > grace {
			window = grace
		}
	}
	deadline := time.Now().Add(window)
	olog.Info("regrouping", "epoch", prevEpoch+1, "max_survivors", maxSurvivors, "window", window)
	var conns []Conn
	for len(conns) < maxSurvivors {
		conn, h, err := c.accept(deadline)
		if err != nil {
			// Window closed: whoever rejoined is the new fleet.
			break
		}
		if conn == nil {
			continue
		}
		if reason := protoMismatch(h); reason != "" {
			c.reject(conn, reason)
			continue
		}
		if h.epoch != prevEpoch {
			// Stale epoch: a survivor of an EARLIER incarnation that missed
			// a regroup, or a fresh joiner to a running fleet. Both are
			// rejected — the one membership transition in flight is the
			// failed-epoch survivors' regroup, nothing else.
			c.reject(conn, fmt.Sprintf("stale membership epoch %d, current is %d", h.epoch, prevEpoch))
			continue
		}
		conns = append(conns, conn)
	}
	g, err := c.seal(conns)
	if err != nil {
		return nil, err
	}
	mRegroups.Inc()
	olog.Info("regrouped", "epoch", c.epoch, "world", c.curWorld, "regroups", c.regroups)
	return g, nil
}

// seal turns the collected conns into the next epoch's group: ranks
// assigned in arrival order, welcomes sent, liveness armed.
func (c *ElasticCoordinator) seal(conns []Conn) (*Group, error) {
	c.epoch++
	world := len(conns) + 1
	c.curWorld = world
	g := &Group{rank: 0, world: world, traceID: c.runID, epoch: c.epoch, conns: make([]Conn, world)}
	for i, conn := range conns {
		rank := i + 1
		w := appendWelcome(nil, welcome{runID: c.runID, rank: uint32(rank), world: uint32(world), epoch: c.epoch})
		// Best-effort: a worker that died between hello and welcome fails
		// the first reduce of the epoch, which triggers the next regroup.
		conn.Send(FrameWelcome, w) //nolint:errcheck // see above
		g.conns[rank] = conn
	}
	g.startLiveness(c.opts.HeartbeatInterval, c.opts.HeartbeatTimeout)
	c.g = g
	return g, nil
}

// ElasticWorker is a non-root member's membership handle: Join dials
// the coordinator with bounded, jittered retries (launch order must not
// matter) and, after a failure, rejoins the next epoch.
type ElasticWorker struct {
	addr  string
	world int // expected initial world (advisory; the welcome is authoritative)
	opts  ElasticOptions

	epoch   uint64 // last epoch this worker was welcomed into
	rejoins int
	g       *Group
}

// NewElasticWorker prepares a worker-side membership handle for the
// coordinator at addr.
func NewElasticWorker(addr string, world int, opts ElasticOptions) *ElasticWorker {
	return &ElasticWorker{addr: addr, world: world, opts: opts.withDefaults()}
}

// Close aborts the current group, if any.
func (w *ElasticWorker) Close() error {
	if w.g != nil {
		w.g.Abort("worker shutting down")
		w.g = nil
	}
	return nil
}

// Join connects to the coordinator and becomes a member of the next
// epoch: the initial formation on the first call (announcing the
// expected world), a rejoin on later ones (announcing the lost epoch;
// the coordinator decides the new world). Dial and handshake failures
// retry with jittered backoff until the window closes.
func (w *ElasticWorker) Join() (*Group, error) {
	if w.g != nil {
		w.g.Abort("rejoining next membership epoch")
		w.g = nil
	}
	window := w.opts.JoinTimeout
	announceWorld := uint32(w.world)
	if w.epoch > 0 {
		if w.rejoins >= w.opts.MaxRegroups {
			return nil, fmt.Errorf("dist: %d rejoins exhausted the membership budget (MaxRegroups=%d)", w.rejoins, w.opts.MaxRegroups)
		}
		w.rejoins++
		// A rejoin must outlast the coordinator's own failure detection
		// (it may notice the death a full heartbeat timeout after us)
		// plus its collection window.
		window = w.opts.RegroupTimeout + w.opts.HeartbeatTimeout
		announceWorld = 0 // survivors take whatever world forms
	}
	deadline := time.Now().Add(window)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if time.Until(deadline) <= 0 {
			if lastErr == nil {
				lastErr = errors.New("join window closed")
			}
			return nil, fmt.Errorf("dist: worker could not join coordinator %s: %w", w.addr, lastErr)
		}
		g, permanent, err := w.attempt(announceWorld, deadline)
		if err == nil {
			w.g = g
			w.epoch = g.Epoch()
			return g, nil
		}
		if permanent {
			return nil, err
		}
		lastErr = err
		wait := dialBackoff(attempt, 25*time.Millisecond, 500*time.Millisecond)
		if remain := time.Until(deadline); wait > remain {
			wait = remain
		}
		time.Sleep(wait)
	}
}

// attempt runs one dial + handshake. permanent marks rejections that no
// retry can fix (stale epoch, protocol mismatch via abort frame).
func (w *ElasticWorker) attempt(announceWorld uint32, deadline time.Time) (g *Group, permanent bool, err error) {
	raw, err := net.DialTimeout("tcp", w.addr, time.Until(deadline))
	if err != nil {
		return nil, false, err
	}
	conn := NewStreamConn(raw)
	h := appendHello(nil, hello{
		proto: protoVersion,
		world: announceWorld,
		rank:  rankAssign,
		runID: telemetry.CurrentIdentity().TraceID,
		epoch: w.epoch,
	})
	if err := conn.Send(FrameHello, h); err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("sending join hello: %w", err)
	}
	raw.SetReadDeadline(deadline) //nolint:errcheck // best-effort timeout
	t, payload, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("waiting for join welcome: %w", err)
	}
	switch t {
	case FrameAbort:
		conn.Close()
		reason := "(no reason)"
		if len(payload) > 8 {
			reason = string(payload[8:])
		}
		return nil, true, fmt.Errorf("dist: coordinator rejected the join: %s", reason)
	case FrameWelcome:
	default:
		conn.Close()
		return nil, false, fmt.Errorf("got %s frame while waiting for the join welcome", t)
	}
	wl, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, true, err
	}
	raw.SetReadDeadline(time.Time{}) //nolint:errcheck // joined: back to blocking reads
	telemetry.SetTraceID(wl.runID)
	conns := make([]Conn, wl.world)
	conns[0] = conn
	g = &Group{rank: int(wl.rank), world: int(wl.world), traceID: wl.runID, epoch: wl.epoch, conns: conns}
	g.startLiveness(w.opts.HeartbeatInterval, w.opts.HeartbeatTimeout)
	return g, false, nil
}
