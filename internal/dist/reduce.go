package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/telemetry"
)

var (
	mReduces      = telemetry.GetCounter("dist.reduces")
	mReduceErrors = telemetry.GetCounter("dist.reduce_errors")
	mGradBatches  = telemetry.GetCounter("dist.grad_batches")
)

// BatchGrad is one batch's contribution to a group reduce: the gradient
// of that batch alone (accumulated from zeroed buffers), its training
// metrics, and any deferred batch-norm statistics the rank computed
// while running it. Index is the batch's position inside the sync group
// — the fold key that makes the reduce deterministic.
type BatchGrad struct {
	// Index is the group-local batch index in [0, groupSize).
	Index int
	// Loss is the batch's mean loss; Correct/Seen are its top-1 counts.
	Loss    float32
	Correct int32
	Seen    int32
	// Bad marks a batch whose loss or gradient came out NaN/Inf. A bad
	// contribution ships metadata only (no gradient); every rank applies
	// the configured NaN policy to it identically.
	Bad bool
	// Grad is the flattened parameter gradient (nil when Bad, and nil in
	// the metadata view Reduce returns).
	Grad []float32
	// Stats is the flattened deferred batch-norm (mean, var) pairs this
	// batch produced; every rank replays them in batch order.
	Stats []float32
}

// GradReducer is the train.Fit hook for data-parallel gradient exchange.
// One Reduce call per optimizer step: every rank passes the isolated
// per-batch gradients of its shard, and Reduce leaves the deterministic
// group-wide sum in sum on every rank, returning the metadata (metrics,
// Bad flags, batch-norm stats — Grad nil) of ALL groupSize batches in
// ascending Index order so every rank replays identical bookkeeping.
type GradReducer interface {
	// Rank returns this worker's rank in [0, World).
	Rank() int
	// World returns the number of cooperating workers.
	World() int
	// Reduce folds the group's contributions. step is the 0-based
	// optimizer step the group belongs to, cross-checked against every
	// peer so a desynchronized worker fails loudly.
	Reduce(step int64, groupSize int, local []BatchGrad, sum []float32) ([]BatchGrad, error)
	// Close releases transport resources.
	Close() error
}

// slotByIndex validates contributions and places them into a dense
// groupSize-slot table. Strict by design: an out-of-range, duplicate or
// foreign-rank index means the sharding contract was violated and the
// fold result could not be trusted.
func slotByIndex(byIdx []*BatchGrad, groupSize, world, owner int, contribs []BatchGrad) error {
	for i := range contribs {
		b := &contribs[i]
		if b.Index < 0 || b.Index >= groupSize {
			return fmt.Errorf("dist: contribution index %d outside group of %d", b.Index, groupSize)
		}
		if b.Index%world != owner {
			return fmt.Errorf("dist: rank %d contributed batch %d, which rank %d owns (index %% world)",
				owner, b.Index, b.Index%world)
		}
		if byIdx[b.Index] != nil {
			return fmt.Errorf("dist: duplicate contribution for batch %d", b.Index)
		}
		byIdx[b.Index] = b
	}
	return nil
}

// foldOrdered produces the canonical group gradient: a left fold of the
// good per-batch gradients in ascending batch-index order. The first
// good gradient is COPIED into sum (not added to zero — that would flip
// -0 to +0) and the rest are added elementwise, which is bit-identical
// to sequentially accumulating those batches in one process. It returns
// the metadata view of every slot in index order.
func foldOrdered(byIdx []*BatchGrad, world int, sum []float32) ([]BatchGrad, error) {
	metas := make([]BatchGrad, 0, len(byIdx))
	first := true
	for j, b := range byIdx {
		if b == nil {
			return nil, fmt.Errorf("dist: no contribution for batch %d (rank %d never sent it)", j, j%world)
		}
		metas = append(metas, BatchGrad{
			Index: b.Index, Loss: b.Loss, Correct: b.Correct, Seen: b.Seen,
			Bad: b.Bad, Stats: b.Stats,
		})
		if b.Bad {
			continue
		}
		if len(b.Grad) != len(sum) {
			return nil, fmt.Errorf("dist: batch %d gradient has %d values, model has %d (mixed architectures in one group?)",
				j, len(b.Grad), len(sum))
		}
		if first {
			copy(sum, b.Grad)
			first = false
			continue
		}
		for i, g := range b.Grad {
			sum[i] += g
		}
	}
	if first {
		// Every batch was bad: the step is a no-op; hand back a zero
		// gradient so callers need no special case.
		for i := range sum {
			sum[i] = 0
		}
	}
	return metas, nil
}

// Local is the transportless reducer: world 1, folding the worker's own
// contributions with the identical code path the distributed fold uses,
// so a single-worker group run is bit-identical to any multi-worker run.
type Local struct{}

// Rank implements GradReducer.
func (Local) Rank() int { return 0 }

// World implements GradReducer.
func (Local) World() int { return 1 }

// Close implements GradReducer.
func (Local) Close() error { return nil }

// Reduce implements GradReducer.
func (Local) Reduce(step int64, groupSize int, local []BatchGrad, sum []float32) ([]BatchGrad, error) {
	byIdx := make([]*BatchGrad, groupSize)
	if err := slotByIndex(byIdx, groupSize, 1, 0, local); err != nil {
		return nil, err
	}
	return foldOrdered(byIdx, 1, sum)
}

// Reducer is the transport-backed deterministic reducer over a star
// topology: every rank sends its shard's per-batch gradients to the
// root, the root folds them in batch-index order — never arrival order —
// and broadcasts the sum plus all batch metadata, so every rank steps
// its optimizer with bit-identical inputs. Not safe for concurrent
// Reduce calls (training is step-synchronous by construction).
type Reducer struct {
	g        *Group
	enc      []byte    // reusable encode buffer
	lastSnap time.Time // last metrics snapshot piggybacked on a grad-end
}

// snapInterval throttles the metrics snapshot a non-root rank
// piggybacks on its grad-end frames, bounding the fleet-metrics cost to
// one JSON marshal per second per worker.
const snapInterval = time.Second

// NewReducer builds a reducer over an established group.
func NewReducer(g *Group) *Reducer { return &Reducer{g: g} }

// Rank implements GradReducer.
func (r *Reducer) Rank() int { return r.g.Rank() }

// World implements GradReducer.
func (r *Reducer) World() int { return r.g.World() }

// Close implements GradReducer.
func (r *Reducer) Close() error { return r.g.Close() }

// Reduce implements GradReducer.
func (r *Reducer) Reduce(step int64, groupSize int, local []BatchGrad, sum []float32) ([]BatchGrad, error) {
	sp := telemetry.StartSpan("dist.reduce")
	defer sp.End()
	metas, err := r.reduce(step, groupSize, local, sum)
	if err != nil {
		mReduceErrors.Inc()
		// A failed reduce ends this group incarnation: stream sequence
		// numbers and step boundaries are no longer aligned across the
		// group. A TCP-joined group abandons the epoch on purpose — the
		// abort frame unblocks every peer parked mid-protocol so it can
		// rejoin the next epoch; a group without a failure detector just
		// tears the transport down so blocked peers fail loudly instead
		// of waiting forever.
		if r.g.hbTimeout > 0 {
			r.g.Abort(err.Error())
		} else {
			r.g.Close()
		}
		return nil, err
	}
	if telemetry.Enabled() {
		mReduces.Inc()
		mGradBatches.Add(int64(len(local)))
	}
	return metas, nil
}

func (r *Reducer) reduce(step int64, groupSize int, local []BatchGrad, sum []float32) ([]BatchGrad, error) {
	if r.g.World() == 1 {
		return Local{}.Reduce(step, groupSize, local, sum)
	}
	if r.g.Rank() == 0 {
		return r.reduceRoot(step, groupSize, local, sum)
	}
	return r.reduceWorker(step, groupSize, local, sum)
}

// peerLost classifies a transport failure on the link to peer: in an
// TCP-joined group (failure detector armed) it becomes a recoverable
// membership event an elastic trainer regroups on (plain train.Fit still
// fails on it); in a group without a failure detector it stays fatal. Protocol violations never come through here — regrouping
// cannot fix a logic bug and retrying would only mask one.
func (r *Reducer) peerLost(peer int, err error) error {
	if r.g.hbTimeout <= 0 {
		return err
	}
	mPeerFailures.Inc()
	return &PeerLostError{Rank: peer, Err: err}
}

// recvLive reads the next PROTOCOL frame from peer. Heartbeats are
// consumed transparently — each arrival already refreshed the link's
// read deadline inside Recv, which is exactly how a slow-but-alive peer
// stays alive through a long compute. A transport error (including an
// expired liveness deadline) or an abort frame from the peer surfaces
// as peer loss.
func (r *Reducer) recvLive(peer int) (FrameType, []byte, error) {
	conn := r.g.conn(peer)
	for {
		t, payload, err := conn.Recv()
		if err != nil {
			return 0, nil, r.peerLost(peer, err)
		}
		switch t {
		case FrameHeartbeat:
			continue
		case FrameAbort:
			reason := "(no reason)"
			if len(payload) > 8 {
				reason = string(payload[8:])
			}
			return 0, nil, r.peerLost(peer, fmt.Errorf("peer abandoned the step: %s", reason))
		}
		return t, payload, nil
	}
}

func (r *Reducer) reduceWorker(step int64, groupSize int, local []BatchGrad, sum []float32) ([]BatchGrad, error) {
	conn := r.g.conn(0)
	runID := r.g.traceID
	for i := range local {
		r.enc = appendGradPayload(r.enc[:0], runID, step, &local[i])
		if err := conn.Send(FrameGrad, r.enc); err != nil {
			return nil, r.peerLost(0, err)
		}
	}
	r.enc = appendEndPayload(r.enc[:0], runID, step, len(local), r.maybeSnap())
	if err := conn.Send(FrameGradEnd, r.enc); err != nil {
		return nil, r.peerLost(0, err)
	}
	t, payload, err := r.recvLive(0)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d waiting for reduced gradient: %w", r.g.Rank(), err)
	}
	if t != FrameSum {
		return nil, fmt.Errorf("dist: rank %d got %s frame while waiting for the reduced gradient", r.g.Rank(), t)
	}
	return decodeSumPayload(payload, runID, step, groupSize, sum)
}

// maybeSnap returns this rank's metrics snapshot as JSON at most once
// per snapInterval while telemetry is enabled, nil otherwise. The root
// renders gathered snapshots on its /metrics endpoint, so scraping rank
// 0 sees the whole training group.
func (r *Reducer) maybeSnap() []byte {
	if !telemetry.Enabled() {
		return nil
	}
	now := time.Now()
	if now.Sub(r.lastSnap) < snapInterval {
		return nil
	}
	r.lastSnap = now
	data, err := json.Marshal(telemetry.Snapshot())
	if err != nil {
		return nil // observability must never fail the reduce
	}
	return data
}

func (r *Reducer) reduceRoot(step int64, groupSize int, local []BatchGrad, sum []float32) ([]BatchGrad, error) {
	byIdx := make([]*BatchGrad, groupSize)
	if err := slotByIndex(byIdx, groupSize, r.g.World(), 0, local); err != nil {
		return nil, err
	}
	for peer := 1; peer < r.g.World(); peer++ {
		if err := r.gatherPeer(byIdx, step, groupSize, peer); err != nil {
			return nil, err
		}
	}
	metas, err := foldOrdered(byIdx, r.g.World(), sum)
	if err != nil {
		return nil, err
	}
	r.enc = appendSumPayload(r.enc[:0], r.g.traceID, step, metas, sum)
	for peer := 1; peer < r.g.World(); peer++ {
		if err := r.g.conn(peer).Send(FrameSum, r.enc); err != nil {
			return nil, fmt.Errorf("dist: broadcasting reduced gradient to rank %d: %w", peer, r.peerLost(peer, err))
		}
	}
	return metas, nil
}

// gatherPeer drains one peer's contributions for this step, ending at
// its grad-end frame. The peer's frames arrive in its send order; the
// fold order is fixed by batch index afterwards, so cross-peer timing
// cannot influence the result.
func (r *Reducer) gatherPeer(byIdx []*BatchGrad, step int64, groupSize, peer int) error {
	count := 0
	for {
		t, payload, err := r.recvLive(peer)
		if err != nil {
			return fmt.Errorf("dist: gathering gradients from rank %d: %w", peer, err)
		}
		switch t {
		case FrameGrad:
			gotRun, gotStep, bg, err := decodeGradPayload(payload)
			if err != nil {
				return fmt.Errorf("dist: gradient frame from rank %d: %w", peer, err)
			}
			if err := checkRun(gotRun, r.g.traceID, "gradient frame", peer); err != nil {
				return err
			}
			if gotStep != step {
				return fmt.Errorf("dist: rank %d sent a gradient for step %d during step %d (worker desynchronized)",
					peer, gotStep, step)
			}
			if bg.Index < 0 || bg.Index >= groupSize {
				return fmt.Errorf("dist: rank %d contributed batch %d outside group of %d", peer, bg.Index, groupSize)
			}
			if bg.Index%r.g.World() != peer {
				return fmt.Errorf("dist: rank %d contributed batch %d, which rank %d owns",
					peer, bg.Index, bg.Index%r.g.World())
			}
			if byIdx[bg.Index] != nil {
				return fmt.Errorf("dist: duplicate contribution for batch %d from rank %d", bg.Index, peer)
			}
			byIdx[bg.Index] = bg
			count++
		case FrameGradEnd:
			gotRun, gotStep, gotCount, snap, err := decodeEndPayload(payload)
			if err != nil {
				return fmt.Errorf("dist: grad-end frame from rank %d: %w", peer, err)
			}
			if err := checkRun(gotRun, r.g.traceID, "grad-end frame", peer); err != nil {
				return err
			}
			if gotStep != step {
				return fmt.Errorf("dist: rank %d ended step %d during step %d (worker desynchronized)", peer, gotStep, step)
			}
			if gotCount != count {
				return fmt.Errorf("dist: rank %d announced %d contributions, %d arrived (frames lost in transit)",
					peer, gotCount, count)
			}
			if len(snap) > 0 {
				// Best-effort fleet metrics: a snapshot that does not parse
				// is dropped, never fails the reduce.
				var s telemetry.Snap
				if err := json.Unmarshal(snap, &s); err == nil {
					telemetry.SetPeerSnap(peer, s)
				}
			}
			return nil
		default:
			return fmt.Errorf("dist: unexpected %s frame from rank %d during gradient gather", t, peer)
		}
	}
}

// checkRun rejects a payload tagged with a different run id. Lenient
// by design when either side is untraced (id 0): hand-assembled test
// groups and pre-observability peers keep working; only two actually
// traced, actually different runs collide.
func checkRun(got, want uint64, what string, peer int) error {
	if got != 0 && want != 0 && got != want {
		return fmt.Errorf("dist: %s from rank %d belongs to run %016x, this group is run %016x (two fleets crossed?)",
			what, peer, got, want)
	}
	return nil
}

// Gradient payload: u64 run id, u64 step, u32 index, u8 bad, u32 loss
// bits, u32 correct, u32 seen, u32 nStats, f32 stats..., u64 nGrad,
// f32 grad... Floats travel as raw bits so the fold is bit-exact across
// the wire.

func appendGradPayload(dst []byte, runID uint64, step int64, b *BatchGrad) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, runID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Index))
	bad := byte(0)
	if b.Bad {
		bad = 1
	}
	dst = append(dst, bad)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(b.Loss))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Correct))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Seen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Stats)))
	for _, v := range b.Stats {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b.Grad)))
	for _, v := range b.Grad {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// byteReader is a bounds-checked cursor over a payload; decode paths use
// it so malformed lengths produce errors, never panics.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) u8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, fmt.Errorf("payload truncated at byte %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("payload truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("payload truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("payload claims %d bytes, %d remain", n, len(r.b)-r.off)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *byteReader) f32s(n int) ([]float32, error) {
	if n < 0 || r.off+4*n > len(r.b) {
		return nil, fmt.Errorf("payload claims %d floats, %d bytes remain", n, len(r.b)-r.off)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.off+4*i:]))
	}
	r.off += 4 * n
	return out, nil
}

func (r *byteReader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes in payload", len(r.b)-r.off)
	}
	return nil
}

func decodeGradPayload(p []byte) (uint64, int64, *BatchGrad, error) {
	r := &byteReader{b: p}
	runID, err := r.u64()
	if err != nil {
		return 0, 0, nil, err
	}
	step, err := r.u64()
	if err != nil {
		return 0, 0, nil, err
	}
	idx, err := r.u32()
	if err != nil {
		return 0, 0, nil, err
	}
	bad, err := r.u8()
	if err != nil {
		return 0, 0, nil, err
	}
	lossBits, err := r.u32()
	if err != nil {
		return 0, 0, nil, err
	}
	correct, err := r.u32()
	if err != nil {
		return 0, 0, nil, err
	}
	seen, err := r.u32()
	if err != nil {
		return 0, 0, nil, err
	}
	nStats, err := r.u32()
	if err != nil {
		return 0, 0, nil, err
	}
	stats, err := r.f32s(int(nStats))
	if err != nil {
		return 0, 0, nil, err
	}
	nGrad, err := r.u64()
	if err != nil {
		return 0, 0, nil, err
	}
	grad, err := r.f32s(int(nGrad))
	if err != nil {
		return 0, 0, nil, err
	}
	if err := r.done(); err != nil {
		return 0, 0, nil, err
	}
	bg := &BatchGrad{
		Index: int(int32(idx)), Loss: math.Float32frombits(lossBits),
		Correct: int32(correct), Seen: int32(seen), Bad: bad != 0,
		Stats: stats,
	}
	if len(grad) > 0 {
		bg.Grad = grad
	}
	return runID, int64(step), bg, nil
}

// Grad-end payload: u64 run id, u64 step, u32 count, u32 snapLen,
// snapLen bytes of metrics-snapshot JSON (0 when no snapshot rides
// along this step).

func appendEndPayload(dst []byte, runID uint64, step int64, count int, snap []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, runID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(snap)))
	dst = append(dst, snap...)
	return dst
}

func decodeEndPayload(p []byte) (uint64, int64, int, []byte, error) {
	r := &byteReader{b: p}
	runID, err := r.u64()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	step, err := r.u64()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	count, err := r.u32()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	snapLen, err := r.u32()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	snap, err := r.bytes(int(snapLen))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if err := r.done(); err != nil {
		return 0, 0, 0, nil, err
	}
	return runID, int64(step), int(count), snap, nil
}

// Sum payload: u64 run id, u64 step, u32 groupSize, per batch {u8 bad,
// u32 loss bits, u32 correct, u32 seen, u32 nStats, f32 stats...},
// u64 nGrad, f32 folded gradient.

func appendSumPayload(dst []byte, runID uint64, step int64, metas []BatchGrad, sum []float32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, runID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(metas)))
	for i := range metas {
		m := &metas[i]
		bad := byte(0)
		if m.Bad {
			bad = 1
		}
		dst = append(dst, bad)
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(m.Loss))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Correct))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Seen))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Stats)))
		for _, v := range m.Stats {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(sum)))
	for _, v := range sum {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

func decodeSumPayload(p []byte, wantRun uint64, wantStep int64, wantGroup int, sum []float32) ([]BatchGrad, error) {
	r := &byteReader{b: p}
	runID, err := r.u64()
	if err != nil {
		return nil, err
	}
	if err := checkRun(runID, wantRun, "reduced gradient", 0); err != nil {
		return nil, err
	}
	step, err := r.u64()
	if err != nil {
		return nil, err
	}
	if int64(step) != wantStep {
		return nil, fmt.Errorf("dist: reduced gradient is for step %d, this rank is at step %d (desynchronized)", step, wantStep)
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) != wantGroup {
		return nil, fmt.Errorf("dist: reduced group has %d batches, this rank expects %d (group size mismatch)", n, wantGroup)
	}
	metas := make([]BatchGrad, n)
	for i := range metas {
		bad, err := r.u8()
		if err != nil {
			return nil, err
		}
		lossBits, err := r.u32()
		if err != nil {
			return nil, err
		}
		correct, err := r.u32()
		if err != nil {
			return nil, err
		}
		seen, err := r.u32()
		if err != nil {
			return nil, err
		}
		nStats, err := r.u32()
		if err != nil {
			return nil, err
		}
		stats, err := r.f32s(int(nStats))
		if err != nil {
			return nil, err
		}
		metas[i] = BatchGrad{
			Index: i, Loss: math.Float32frombits(lossBits),
			Correct: int32(correct), Seen: int32(seen), Bad: bad != 0,
			Stats: stats,
		}
	}
	nGrad, err := r.u64()
	if err != nil {
		return nil, err
	}
	if int(nGrad) != len(sum) {
		return nil, fmt.Errorf("dist: reduced gradient has %d values, model has %d (mixed architectures in one group?)",
			nGrad, len(sum))
	}
	folded, err := r.f32s(int(nGrad))
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	copy(sum, folded)
	return metas, nil
}
