// Package serve is the production inference service over a pool of
// resident infer.Sessions: cross-request dynamic batching (collect
// requests up to a deadline or a max batch, run ONE batched executor
// pass, scatter the per-request results), round-robin dispatch of
// batches across replicas, admission control with a bounded queue and
// backpressure, graceful drain, and hot model reload built on the
// executors' generation-checked weight-cache invalidation.
//
// Correctness rests on two invariances pinned by tests. Batch
// invariance (package infer): the ODQ predictor and the DRQ region
// threshold normalize per sample, so a batched pass is bit-identical to
// running every request alone. Replica invariance: every replica loads
// the identical checkpoint, so which replica answers a request is an
// execution detail — batching and replication change latency and
// throughput, never answers.
//
// Concurrency model: HTTP handlers only enqueue; one collector
// goroutine owns batch formation and round-robin dispatch, and each
// replica goroutine exclusively owns one session — every Forward and
// every reload of a session happens on its replica goroutine, so weight
// swaps never race an in-flight pass. The per-replica work channels
// have capacity 1: when every replica is mid-pass the collector blocks,
// which is the backpressure that keeps the bounded admission queue
// honest.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/olog"
	"repro/internal/tensor"
)

// Admission errors, mapped to HTTP status codes by the handler layer.
var (
	// ErrQueueFull means the bounded admission queue is at capacity:
	// backpressure, retry later (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining means the server is shutting down and accepts no new
	// work (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting requests")
)

// Config sizes the serving loop. Zero values take the stated defaults.
type Config struct {
	// ModelName labels status output. Default "model".
	ModelName string
	// InputC/H/W is the accepted input shape; every request must carry
	// exactly C*H*W values.
	InputC, InputH, InputW int
	// MaxBatch flushes a batch when this many requests are collected
	// (default 16).
	MaxBatch int
	// BatchDeadline flushes a non-empty batch this long after its first
	// request was dequeued (default 2ms). A lone request therefore waits
	// at most BatchDeadline before executing.
	BatchDeadline time.Duration
	// QueueDepth bounds the admission queue; submissions beyond it get
	// ErrQueueFull (default 256).
	QueueDepth int
	// CkptPath is the default checkpoint for reloads that name no path
	// (the SIGHUP path in odq-serve).
	CkptPath string

	// SessionFactory, when set, lets the supervisor respawn a panicked
	// replica with a fresh session (same checkpoint, same scheme — the
	// replica-invariance contract is the factory's to keep). Without it
	// a panicked replica is tombstoned: it keeps draining its work
	// channel answering errors, and capacity stays degraded.
	SessionFactory func() (*infer.Session, error)
	// MaxRespawns caps supervisor respawns per replica before it is
	// tombstoned — a session that panics on every fresh spawn is a
	// deterministic bug, not a transient fault (default 3).
	MaxRespawns int
	// RespawnDelay is the pause before respawning a panicked replica,
	// so a hot-looping crash cannot monopolize a core (default 100ms).
	RespawnDelay time.Duration
	// EnableChaos exposes POST /v1/chaos/panic, which arms an injected
	// panic on the next executor pass. Chaos drills only — never set it
	// in production configs.
	EnableChaos bool
}

func (c Config) withDefaults() Config {
	if c.ModelName == "" {
		c.ModelName = "model"
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.BatchDeadline <= 0 {
		c.BatchDeadline = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxRespawns <= 0 {
		c.MaxRespawns = 3
	}
	if c.RespawnDelay <= 0 {
		c.RespawnDelay = 100 * time.Millisecond
	}
	return c
}

// Result is one request's answer.
type Result struct {
	// RequestID echoes the id the request was submitted under (the
	// X-ODQ-Request-ID correlation header at the HTTP layer).
	RequestID string
	// Class is the argmax class index.
	Class int
	// Logits is the request's full logit row.
	Logits []float32
	// BatchSize is how many requests shared the executor pass.
	BatchSize int
	// Replica is the index of the replica that executed the pass.
	Replica int
	// Generation is the weight generation that produced the answer.
	Generation uint64
	// Latency is enqueue-to-scatter time.
	Latency time.Duration
	// Err reports a request that was accepted but could not be answered:
	// the executing replica panicked, was already tombstoned, or the
	// client's deadline expired in the queue. The HTTP layer maps it to
	// 503 with a Retry-After; every other Result field except RequestID
	// and Replica is zero.
	Err error
}

// pending is one admitted request waiting for its batch. Ownership is a
// strict handoff — submitter → collector → one replica goroutine — so
// the mutable fields (deq, answered) never need a lock.
type pending struct {
	id   string
	x    []float32
	ctx  context.Context // client lifetime; nil means no deadline
	enq  time.Time       // admission (Submit) time
	deq  time.Time       // collector pickup time; deq-enq is the queue wait
	resp chan Result
	// answered flips just before the resp send, so the panic-recovery
	// path can answer exactly the requests the crashed pass left hanging
	// without ever double-sending on the 1-buffered channel.
	answered bool
}

type reloadReq struct {
	path string
	err  chan error
}

// replicaReload is the reload order the collector routes through a
// replica's work channel, so the swap is ordered after every batch
// dispatched before it.
type replicaReload struct {
	path string
	ack  chan error
}

// workItem is one unit dispatched to a replica: a batch to execute, or
// a weight reload to apply.
type workItem struct {
	batch  []*pending
	reload *replicaReload
}

// replica is one resident session plus the goroutine state that owns
// it. The session pointer is atomic because the supervisor swaps it on
// respawn while Status/Stats read it from other goroutines; Forward and
// ReloadFile still only ever run on the replica goroutine.
type replica struct {
	id   int
	sess atomic.Pointer[infer.Session]
	work chan workItem

	// healthy is cleared the moment a pass panics and set again only
	// after a successful respawn probe; the collector skips unhealthy
	// replicas. tombstone is terminal: the replica keeps draining its
	// work channel, answering every item with an error, so neither the
	// collector nor a drain can wedge on its channel.
	healthy   atomic.Bool
	tombstone atomic.Bool
	restarts  atomic.Int64

	served  atomic.Int64
	batches atomic.Int64
}

// Server owns a pool of resident sessions and batches requests onto it.
type Server struct {
	cfg      Config
	replicas []*replica
	classes  int

	mu       sync.RWMutex // guards draining vs. enqueue/close ordering
	draining bool

	queue   chan *pending
	reloads chan reloadReq
	done    chan struct{} // closed when the collector and all replicas exit
	wg      sync.WaitGroup

	// Plain stats, live regardless of telemetry enablement (Status and
	// the tests read these; telemetry mirrors them when enabled).
	served   atomic.Int64
	rejected atomic.Int64
	batches  atomic.Int64
	batchSum atomic.Int64

	// Telemetry instruments, bound at New. The latency-decomposition
	// histograms (hQueueWait/hCollect/hExec/hScatter/hLatencyMS) use
	// Record, not Observe: /v1/status reports their quantiles whether or
	// not telemetry collection is enabled. They sit on ms-scale paths
	// (once per request or per batch), so the always-on cost is noise.
	mRequests  *telemetry.Counter
	mRejected  *telemetry.Counter
	mBatches   *telemetry.Counter
	mReloads   *telemetry.Counter
	hLatencyMS *telemetry.Histogram
	hQueueWait *telemetry.Histogram
	hCollect   *telemetry.Histogram
	hExec      *telemetry.Histogram
	hScatter   *telemetry.Histogram
	hBatchSize *telemetry.Histogram
	gQueue     *telemetry.Gauge
	gQPS       *telemetry.Gauge

	// Supervision instruments and the chaos hook.
	mRestarts   *telemetry.Counter
	mShed       *telemetry.Counter
	gDegraded   *telemetry.Gauge
	chaosPanics atomic.Int64
}

// New builds a single-replica server over a resident session. Call
// Start to begin serving.
func New(sess *infer.Session, cfg Config) (*Server, error) {
	return NewReplicated([]*infer.Session{sess}, cfg)
}

// NewReplicated builds a server over a pool of resident sessions — one
// replica per session — and warms every replica up: one batch-1 forward
// packs each session's weight codes and tells the server the classifier
// width. The sessions must host the same model loaded from the same
// checkpoint (replica invariance is what makes round-robin dispatch
// transparent); a classifier-width disagreement is rejected here. Call
// Start to begin serving.
func NewReplicated(sessions []*infer.Session, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(sessions) == 0 {
		return nil, errors.New("serve: need at least one session")
	}
	if cfg.InputC <= 0 || cfg.InputH <= 0 || cfg.InputW <= 0 {
		return nil, fmt.Errorf("serve: input shape %dx%dx%d invalid", cfg.InputC, cfg.InputH, cfg.InputW)
	}
	classes := 0
	replicas := make([]*replica, len(sessions))
	for i, sess := range sessions {
		probe := sess.Forward(tensor.New(1, cfg.InputC, cfg.InputH, cfg.InputW))
		if probe.Rank() != 2 {
			return nil, fmt.Errorf("serve: replica %d model output rank %d, want 2 (logits)", i, probe.Rank())
		}
		if i == 0 {
			classes = probe.Shape[1]
		} else if probe.Shape[1] != classes {
			return nil, fmt.Errorf("serve: replica %d has %d classes, replica 0 has %d (pools must host one model)",
				i, probe.Shape[1], classes)
		}
		replicas[i] = &replica{id: i, work: make(chan workItem, 1)}
		replicas[i].sess.Store(sess)
		replicas[i].healthy.Store(true)
	}
	s := &Server{
		cfg:      cfg,
		replicas: replicas,
		classes:  classes,
		queue:    make(chan *pending, cfg.QueueDepth),
		reloads:  make(chan reloadReq),
		done:     make(chan struct{}),

		mRequests:  telemetry.GetCounter("serve.requests"),
		mRejected:  telemetry.GetCounter("serve.rejected"),
		mBatches:   telemetry.GetCounter("serve.batches"),
		mReloads:   telemetry.GetCounter("serve.reloads"),
		hLatencyMS: telemetry.GetHistogram("serve.request_latency_ms", telemetry.ExpBuckets(0.1, 2, 18)),
		hQueueWait: telemetry.GetHistogram("serve.queue_wait_ms", telemetry.ExpBuckets(0.01, 2, 20)),
		hCollect:   telemetry.GetHistogram("serve.collect_ms", telemetry.ExpBuckets(0.01, 2, 20)),
		hExec:      telemetry.GetHistogram("serve.execute_ms", telemetry.ExpBuckets(0.1, 2, 18)),
		hScatter:   telemetry.GetHistogram("serve.scatter_ms", telemetry.ExpBuckets(0.01, 2, 20)),
		hBatchSize: telemetry.GetHistogram("serve.batch_size", telemetry.LinearBuckets(1, 1, 64)),
		gQueue:     telemetry.GetGauge("serve.queue_depth"),
		gQPS:       telemetry.GetGauge("serve.qps"),

		mRestarts: telemetry.GetCounter("serve.replica_restarts"),
		mShed:     telemetry.GetCounter("serve.deadline_shed"),
		gDegraded: telemetry.GetGauge("serve.degraded_replicas"),
	}
	return s, nil
}

// Session returns replica 0's resident session.
func (s *Server) Session() *infer.Session { return s.replicas[0].sess.Load() }

// Replicas returns the pool size.
func (s *Server) Replicas() int { return len(s.replicas) }

// HealthyReplicas returns how many replicas are currently able to
// execute passes; anything below Replicas() is degraded capacity.
func (s *Server) HealthyReplicas() int {
	n := 0
	for _, r := range s.replicas {
		if r.healthy.Load() {
			n++
		}
	}
	return n
}

// updateDegraded republishes the degraded-capacity gauge.
func (s *Server) updateDegraded() {
	s.gDegraded.Set(float64(len(s.replicas) - s.HealthyReplicas()))
}

// InjectPanic arms n injected panics: each fires at the start of an
// executor pass, crashing whichever replica picked the batch up — the
// chaos drill for the supervision path.
func (s *Server) InjectPanic(n int) {
	if n > 0 {
		s.chaosPanics.Add(int64(n))
	}
}

// Classes returns the classifier width discovered at warmup.
func (s *Server) Classes() int { return s.classes }

// Start launches the collector, the replica executors and the QPS
// sampler.
func (s *Server) Start() {
	for _, r := range s.replicas {
		s.wg.Add(1)
		go s.replicaLoop(r)
	}
	go s.run()
	go s.sampleQPS()
}

// Submit admits one request (input length must be exactly C*H*W) and
// returns a channel that receives exactly one Result once its batch has
// executed. ErrQueueFull and ErrDraining signal backpressure and
// shutdown; the caller maps them to 429/503.
func (s *Server) Submit(x []float32) (<-chan Result, error) {
	return s.SubmitID(x, "")
}

// SubmitID is Submit with a caller-chosen correlation id (the HTTP
// layer's X-ODQ-Request-ID) that rides through the batcher and comes
// back in the Result.
func (s *Server) SubmitID(x []float32, id string) (<-chan Result, error) {
	return s.SubmitCtx(context.Background(), x, id)
}

// SubmitCtx is SubmitID honoring the client's lifetime: a request whose
// ctx is already done when the collector picks it up is shed with
// Result.Err instead of spending executor time on an answer nobody is
// waiting for.
func (s *Server) SubmitCtx(ctx context.Context, x []float32, id string) (<-chan Result, error) {
	if want := s.cfg.InputC * s.cfg.InputH * s.cfg.InputW; len(x) != want {
		return nil, fmt.Errorf("serve: input has %d values, want %d (%dx%dx%d)",
			len(x), want, s.cfg.InputC, s.cfg.InputH, s.cfg.InputW)
	}
	p := &pending{id: id, x: x, ctx: ctx, enq: time.Now(), resp: make(chan Result, 1)}
	// The RLock pairs with Drain's Lock: draining is never set between
	// our check and our send, so no send can follow close(s.queue).
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return nil, ErrDraining
	}
	select {
	case s.queue <- p:
		s.mRequests.Inc()
		s.gQueue.Set(float64(len(s.queue)))
		return p.resp, nil
	default:
		s.rejected.Add(1)
		s.mRejected.Inc()
		return nil, ErrQueueFull
	}
}

// Reload hot-swaps weights from the checkpoint at path (empty = the
// configured default) on EVERY replica. The reload order rides each
// replica's work channel, so on each replica it is ordered after all
// batches dispatched before it and a swap never races an executor pass.
// Returns the new weight generation. On a partial failure (some
// replicas swapped, some did not) an error is returned and the pool
// keeps serving — Result.Generation tells callers which weights
// answered; retry the reload to converge the stragglers.
func (s *Server) Reload(path string) (uint64, error) {
	if path == "" {
		path = s.cfg.CkptPath
	}
	if path == "" {
		return 0, errors.New("serve: no checkpoint path to reload from")
	}
	req := reloadReq{path: path, err: make(chan error, 1)}
	select {
	case s.reloads <- req:
	case <-s.done:
		return 0, ErrDraining
	}
	if err := <-req.err; err != nil {
		olog.Error("weight reload failed", "path", path, "err", err)
		return 0, err
	}
	gen := s.replicas[0].sess.Load().Generation()
	olog.Info("weights reloaded", "path", path, "generation", gen, "replicas", len(s.replicas))
	return gen, nil
}

// Drain stops admission (new Submits get ErrDraining), lets the pool
// finish every already-accepted request, and returns when every replica
// has exited or the timeout elapsed.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
		olog.Info("admission stopped, draining queue", "queued", len(s.queue))
	}
	select {
	case <-s.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: drain timed out after %v", timeout)
	}
}

// Draining reports whether the server has stopped admission.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// StageQuantiles is one latency stage's estimated quantiles in
// milliseconds plus the number of samples behind them.
type StageQuantiles struct {
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Count int64   `json:"count"`
}

func stageQuantiles(h *telemetry.Histogram) StageQuantiles {
	snap := h.Snapshot()
	return StageQuantiles{
		P50:   snap.Quantile(0.50),
		P95:   snap.Quantile(0.95),
		P99:   snap.Quantile(0.99),
		Count: snap.Count,
	}
}

// LatencyBreakdown decomposes request latency by pipeline stage:
// queue wait (Submit to collector pickup, per request), batch collect
// (per batch), executor pass (per batch), scatter (per batch), and the
// end-to-end total (per request). Always live — the underlying
// histograms record regardless of the telemetry enable flag.
type LatencyBreakdown struct {
	QueueWait StageQuantiles `json:"queue_wait"`
	Collect   StageQuantiles `json:"collect"`
	Execute   StageQuantiles `json:"execute"`
	Scatter   StageQuantiles `json:"scatter"`
	Total     StageQuantiles `json:"total"`
}

// LatencyBreakdown returns the current per-stage latency quantiles.
func (s *Server) LatencyBreakdown() LatencyBreakdown {
	return LatencyBreakdown{
		QueueWait: stageQuantiles(s.hQueueWait),
		Collect:   stageQuantiles(s.hCollect),
		Execute:   stageQuantiles(s.hExec),
		Scatter:   stageQuantiles(s.hScatter),
		Total:     stageQuantiles(s.hLatencyMS),
	}
}

// ReplicaStats is one replica's point-in-time counters.
type ReplicaStats struct {
	Served, Batches int64
	Generation      uint64
	Healthy         bool
	Restarts        int64
}

// Stats is a point-in-time view of the serving counters.
type Stats struct {
	Served, Rejected, Batches int64
	MeanBatch                 float64
	QueueDepth, QueueCap      int
	Replicas                  int
	HealthyReplicas           int
	PerReplica                []ReplicaStats
}

// Stats returns the live counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Served:          s.served.Load(),
		Rejected:        s.rejected.Load(),
		Batches:         s.batches.Load(),
		QueueDepth:      len(s.queue),
		QueueCap:        s.cfg.QueueDepth,
		Replicas:        len(s.replicas),
		HealthyReplicas: s.HealthyReplicas(),
		PerReplica:      make([]ReplicaStats, len(s.replicas)),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.batchSum.Load()) / float64(st.Batches)
	}
	for i, r := range s.replicas {
		st.PerReplica[i] = ReplicaStats{
			Served:     r.served.Load(),
			Batches:    r.batches.Load(),
			Generation: r.sess.Load().Generation(),
			Healthy:    r.healthy.Load(),
			Restarts:   r.restarts.Load(),
		}
	}
	return st
}

// run is the collector: the single goroutine that forms batches and
// deals them round-robin across the replica pool. On exit (drain) it
// closes every work channel and waits for the replicas to finish their
// queued items, so drain completes all accepted work.
func (s *Server) run() {
	defer func() {
		for _, r := range s.replicas {
			close(r.work)
		}
		s.wg.Wait()
		close(s.done)
	}()
	rr := 0
	for {
		select {
		case r := <-s.reloads:
			s.reloadAll(r)
		case p, ok := <-s.queue:
			if !ok {
				return
			}
			s.noteDequeued(p)
			if s.shedExpired(p) {
				continue
			}
			batch, closed := s.collect(p)
			rr = s.pickReplica(rr)
			s.replicas[rr].work <- workItem{batch: batch}
			rr = (rr + 1) % len(s.replicas)
			if closed {
				return
			}
		}
	}
}

// pickReplica returns the next dispatch target, preferring healthy
// replicas in round-robin order from rr. With no healthy replica it
// falls back to rr itself: tombstoned replicas keep draining their
// channels (answering errors), so the send cannot wedge, and a
// mid-respawn replica picks its backlog up the moment it recovers.
func (s *Server) pickReplica(rr int) int {
	for i := 0; i < len(s.replicas); i++ {
		c := (rr + i) % len(s.replicas)
		if s.replicas[c].healthy.Load() {
			return c
		}
	}
	return rr
}

// shedExpired answers a request whose client already gave up while it
// was queued, instead of spending an executor pass on it. The pending is
// collector-owned at this point, so the send cannot race a replica.
func (s *Server) shedExpired(p *pending) bool {
	if p.ctx == nil || p.ctx.Err() == nil {
		return false
	}
	s.mShed.Inc()
	p.answered = true
	p.resp <- Result{
		RequestID: p.id,
		Err: fmt.Errorf("serve: client deadline expired after %.1fms in queue: %w",
			float64(p.deq.Sub(p.enq))/float64(time.Millisecond), p.ctx.Err()),
	}
	return true
}

// reloadAll routes one reload order through every replica's work
// channel and gathers the acks, reporting the first failure.
func (s *Server) reloadAll(r reloadReq) {
	ack := make(chan error, len(s.replicas))
	for _, rep := range s.replicas {
		rep.work <- workItem{reload: &replicaReload{path: r.path, ack: ack}}
	}
	var first error
	for range s.replicas {
		if err := <-ack; err != nil && first == nil {
			first = err
		}
	}
	r.err <- first
}

// noteDequeued stamps the collector-pickup time on a request and
// records its queue wait — the first addend of the latency
// decomposition /v1/status reports.
func (s *Server) noteDequeued(p *pending) {
	p.deq = time.Now()
	s.hQueueWait.Record(float64(p.deq.Sub(p.enq)) / float64(time.Millisecond))
}

// collect gathers up to MaxBatch requests (waiting at most
// BatchDeadline past the first). closed reports that the queue was
// closed during collection (drain): the batch still executes.
func (s *Server) collect(first *pending) (batch []*pending, closed bool) {
	spCollect := telemetry.StartSpan("serve.collect")
	start := time.Now()
	defer func() {
		s.hCollect.Record(float64(time.Since(start)) / float64(time.Millisecond))
		spCollect.End()
	}()
	batch = append(make([]*pending, 0, s.cfg.MaxBatch), first)
	deadline := time.NewTimer(s.cfg.BatchDeadline)
	defer deadline.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case p, ok := <-s.queue:
			if !ok {
				closed = true
				s.gQueue.Set(0)
				return batch, true
			}
			s.noteDequeued(p)
			if s.shedExpired(p) {
				continue
			}
			batch = append(batch, p)
		case <-deadline.C:
			s.gQueue.Set(float64(len(s.queue)))
			return batch, false
		}
	}
	s.gQueue.Set(float64(len(s.queue)))
	return batch, false
}

// replicaLoop executes this replica's work items in dispatch order —
// the goroutine is the session's exclusive owner, so batched passes and
// weight swaps are serialized per replica by construction. Every item
// runs under the supervisor (runItem): a panic answers the item's
// requests with errors and respawns or tombstones the replica, it never
// takes the process down.
func (s *Server) replicaLoop(r *replica) {
	defer s.wg.Done()
	for it := range r.work {
		s.runItem(r, it)
	}
}

// errReplicaDown answers work routed to a tombstoned replica.
var errReplicaDown = errors.New("serve: replica is down (tombstoned after repeated panics)")

// runItem executes one work item under panic supervision.
func (s *Server) runItem(r *replica, it workItem) {
	defer func() {
		if rec := recover(); rec != nil {
			s.supervise(r, it, rec)
		}
	}()
	if r.tombstone.Load() {
		// A dead replica still consumes its channel so neither the
		// collector nor a drain can wedge on it; the answers are honest
		// errors the HTTP layer maps to 503.
		s.failItem(r, it, errReplicaDown)
		return
	}
	if it.reload != nil {
		sp := telemetry.StartSpan("serve.reload")
		err := r.sess.Load().ReloadFile(it.reload.path)
		sp.End()
		if err == nil {
			s.mReloads.Inc()
		}
		it.reload.ack <- err
		return
	}
	s.execBatch(r, it.batch)
}

// failItem answers everything in a work item with err: the unanswered
// requests of a batch, or the ack of a reload order — the latter closes
// the window where a panicked replica could strand Reload (and through
// it the collector and any concurrent Drain) waiting for an ack that
// would never come.
func (s *Server) failItem(r *replica, it workItem, err error) {
	if it.reload != nil {
		it.reload.ack <- fmt.Errorf("serve: replica %d: %w", r.id, err)
		return
	}
	for _, p := range it.batch {
		if p.answered {
			continue
		}
		p.answered = true
		p.resp <- Result{RequestID: p.id, Replica: r.id, Err: err}
	}
}

// supervise is the panic path of one replica: answer the crashed item's
// requests, mark the replica unhealthy, then respawn it with a fresh
// session from the factory — or tombstone it when the factory is absent
// or the respawn budget is spent.
func (s *Server) supervise(r *replica, it workItem, rec interface{}) {
	r.healthy.Store(false)
	s.updateDegraded()
	err := fmt.Errorf("serve: replica %d panicked: %v", r.id, rec)
	olog.Error("replica panicked", "replica", r.id, "panic", fmt.Sprint(rec),
		"restarts", r.restarts.Load())
	s.failItem(r, it, err)
	if s.cfg.SessionFactory == nil || r.restarts.Load() >= int64(s.cfg.MaxRespawns) {
		r.tombstone.Store(true)
		olog.Error("replica tombstoned", "replica", r.id, "restarts", r.restarts.Load(),
			"max_respawns", s.cfg.MaxRespawns)
		return
	}
	// Synchronous respawn on the replica goroutine: the work channel
	// buffers (and the collector skips unhealthy replicas), so the pause
	// costs capacity, never correctness.
	time.Sleep(s.cfg.RespawnDelay)
	sess, ferr := s.cfg.SessionFactory()
	if ferr == nil {
		var classes int
		classes, ferr = probeSession(sess, s.cfg.InputC, s.cfg.InputH, s.cfg.InputW)
		if ferr == nil && classes != s.classes {
			ferr = fmt.Errorf("respawned session has %d classes, pool serves %d", classes, s.classes)
		}
	}
	if ferr != nil {
		r.tombstone.Store(true)
		olog.Error("replica respawn failed, tombstoned", "replica", r.id, "err", ferr)
		return
	}
	r.sess.Store(sess)
	r.restarts.Add(1)
	s.mRestarts.Inc()
	r.healthy.Store(true)
	s.updateDegraded()
	olog.Info("replica respawned", "replica", r.id, "restarts", r.restarts.Load())
}

// probeSession warms a fresh session up with one batch-1 pass and
// reports its classifier width; a panic during the probe is an error,
// not a crash (the supervisor calls this on the recovery path).
func probeSession(sess *infer.Session, c, h, w int) (classes int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("serve: session probe panicked: %v", rec)
		}
	}()
	probe := sess.Forward(tensor.New(1, c, h, w))
	if probe.Rank() != 2 {
		return 0, fmt.Errorf("serve: session probe output rank %d, want 2 (logits)", probe.Rank())
	}
	return probe.Shape[1], nil
}

// execBatch runs one batched pass on r's session and scatters the
// results.
func (s *Server) execBatch(r *replica, batch []*pending) {
	if s.chaosPanics.Load() > 0 {
		if s.chaosPanics.Add(-1) >= 0 {
			panic(fmt.Sprintf("chaos: injected panic on replica %d", r.id))
		}
		s.chaosPanics.Add(1) // lost a decrement race; restore
	}
	n := len(batch)
	per := s.cfg.InputC * s.cfg.InputH * s.cfg.InputW
	x := tensor.New(n, s.cfg.InputC, s.cfg.InputH, s.cfg.InputW)
	for i, p := range batch {
		copy(x.Data[i*per:(i+1)*per], p.x)
	}

	// The execute span carries the request ids sharing the pass, so a
	// trace lane click shows exactly which requests a batch answered.
	var spExec telemetry.Span
	if telemetry.Enabled() {
		ids := make([]string, 0, n)
		for _, p := range batch {
			if p.id != "" {
				ids = append(ids, p.id)
			}
		}
		spExec = telemetry.StartSpanWith("serve.execute",
			map[string]interface{}{"batch": n, "replica": r.id, "request_ids": ids})
	} else {
		spExec = telemetry.StartSpan("serve.execute")
	}
	execStart := time.Now()
	sess := r.sess.Load()
	logits := sess.Forward(x)
	s.hExec.Record(float64(time.Since(execStart)) / float64(time.Millisecond))
	spExec.End()

	// Count the batch before answering it, so a Stats call made after a
	// reply arrives always includes that reply's batch.
	s.served.Add(int64(n))
	s.batches.Add(1)
	s.batchSum.Add(int64(n))
	r.served.Add(int64(n))
	r.batches.Add(1)
	s.mBatches.Inc()
	s.hBatchSize.Observe(float64(n))

	spScatter := telemetry.StartSpan("serve.scatter")
	scatterStart := time.Now()
	gen := sess.Generation()
	now := time.Now()
	preds := logits.ArgmaxRows()
	for i, p := range batch {
		row := make([]float32, s.classes)
		copy(row, logits.Data[i*s.classes:(i+1)*s.classes])
		lat := now.Sub(p.enq)
		s.hLatencyMS.Record(float64(lat) / float64(time.Millisecond))
		p.answered = true
		p.resp <- Result{
			RequestID:  p.id,
			Class:      preds[i],
			Logits:     row,
			BatchSize:  n,
			Replica:    r.id,
			Generation: gen,
			Latency:    lat,
		}
	}
	s.hScatter.Record(float64(time.Since(scatterStart)) / float64(time.Millisecond))
	spScatter.End()

}

// sampleQPS publishes the per-model QPS gauge once a second until drain.
func (s *Server) sampleQPS() {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last := int64(0)
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			cur := s.served.Load()
			s.gQPS.Set(float64(cur - last))
			last = cur
		}
	}
}
