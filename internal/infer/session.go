package infer

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Session telemetry handles.
var (
	mSessionForwards = telemetry.GetCounter("infer.session.forwards")
	mSessionReloads  = telemetry.GetCounter("infer.session.reloads")
)

// Session is a resident inference session: one model with one executor
// installed for the life of the session, replacing the per-call
// construct-install-discard pattern the CLIs used to follow. Residency is
// what makes repeated inference cheap — the executor's per-layer weight
// codes stay packed across calls, and conv scratch comes from the
// process-wide buffer pools — and it is the object the serving layer
// batches requests onto.
//
// Concurrency: Forward is safe to call concurrently with other Forwards
// (executors are concurrency-safe and eval-mode modules cache nothing),
// but NOT concurrently with Reload/Invalidate, which mutate the weight
// tensors in place. Serialize reloads against forwards (the serve batcher
// does this by performing both on its single executor goroutine).
type Session struct {
	net    nn.Module
	scheme *Scheme
	exec   Executor // nil for the float scheme

	// pipeline, when non-nil, replaces the module-chain forward with the
	// packed-INT4 quantized-domain plan (see EnablePackedDomain).
	pipeline *Pipeline

	gen atomic.Uint64
}

// NewSession builds the executor for a scheme, installs it on net
// following the scheme's convention, and returns the resident session.
func NewSession(net nn.Module, scheme string, opts ...Option) (*Session, error) {
	s, err := SchemeByName(scheme)
	if err != nil {
		return nil, err
	}
	exec, err := NewFromScheme(scheme, opts...)
	if err != nil {
		return nil, err
	}
	Install(net, s, exec)
	sess := &Session{net: net, scheme: s, exec: exec}
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if o.packedDomain {
		if err := sess.EnablePackedDomain(); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// NewSessionFromExecutor wraps an already-constructed executor (custom
// options, instrumented wrappers in tests) into a session. The executor
// is installed tail-only when tailOnly is set, on every conv otherwise;
// scheme is a free-form label reported by Scheme().
func NewSessionFromExecutor(net nn.Module, scheme string, exec Executor, tailOnly bool) *Session {
	s := &Scheme{Name: scheme, TailOnly: tailOnly}
	Install(net, s, exec)
	return &Session{net: net, scheme: s, exec: exec}
}

// Net returns the session's model.
func (s *Session) Net() nn.Module { return s.net }

// Exec returns the installed executor (nil for the float scheme).
func (s *Session) Exec() Executor { return s.exec }

// Scheme returns the scheme name the session was built with.
func (s *Session) Scheme() string { return s.scheme.Name }

// Generation returns the weight generation: it starts at 0 and increases
// by exactly one per Reload/Invalidate.
func (s *Session) Generation() uint64 { return s.gen.Load() }

// EnablePackedDomain compiles the packed-INT4 quantized-domain pipeline
// for the session and routes Forward through it. Requires the odq scheme
// at 4-bit codes and a flat sequential model whose conv groups end in
// discretizing QuantReLU layers; the output stays bit-identical to the
// module-chain forward.
func (s *Session) EnablePackedDomain() error {
	exec, ok := s.exec.(*core.Exec)
	if !ok {
		return fmt.Errorf("infer: packed domain requires the odq scheme (session scheme is %q)", s.scheme.Name)
	}
	seq, ok := s.net.(*nn.Sequential)
	if !ok {
		return fmt.Errorf("infer: packed domain requires a flat sequential model, have %T", s.net)
	}
	pl, err := CompilePacked(seq, exec)
	if err != nil {
		return err
	}
	s.pipeline = pl
	return nil
}

// PackedDomain reports whether Forward runs the packed-domain pipeline.
func (s *Session) PackedDomain() bool { return s.pipeline != nil }

// Pipeline returns the compiled packed-domain plan (nil when disabled).
func (s *Session) Pipeline() *Pipeline { return s.pipeline }

// Forward runs one inference pass (eval mode) over a batch.
func (s *Session) Forward(x *tensor.Tensor) *tensor.Tensor {
	sp := telemetry.StartSpan("infer.session.forward")
	defer sp.End()
	mSessionForwards.Inc()
	if s.pipeline != nil {
		mPackedForwards.Inc()
		return s.pipeline.Forward(x)
	}
	return s.net.Forward(x, false)
}

// Invalidate records an in-place weight mutation: it bumps the weight
// generation and drops the executor's packed weight codes exactly once.
// Reload calls it; call it directly after mutating weights yourself.
func (s *Session) Invalidate() {
	s.gen.Add(1)
	if s.exec != nil {
		s.exec.InvalidateCache()
	}
}

// Reload hot-swaps the session's weights from a checkpoint stream
// (architecture must match) and invalidates the executor's weight
// caches exactly once. On error the weights may be partially
// written only if the checkpoint itself was readable but mismatched —
// nn.Load validates names and shapes before copying, so a mismatched or
// corrupt checkpoint leaves the session untouched.
func (s *Session) Reload(r io.Reader) error {
	if err := nn.Load(r, s.net); err != nil {
		return err
	}
	s.Invalidate()
	mSessionReloads.Inc()
	return nil
}

// ReloadFile is Reload from a checkpoint path.
func (s *Session) ReloadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Reload(f); err != nil {
		return fmt.Errorf("reloading %s: %w", path, err)
	}
	return nil
}

// Warmup runs one batch-1 zero-input forward so every layer packs its
// weight codes into the executor caches and the scratch pools reach
// steady state before the first real request pays for it. It returns
// the classifier width; a panic during the pass, or an output that is
// not rank-2 logits, is an error rather than a crash.
func (s *Session) Warmup(c, h, w int) (classes int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("session warmup panicked: %v", rec)
		}
	}()
	out := s.Forward(tensor.New(1, c, h, w))
	if out.Rank() != 2 {
		return 0, fmt.Errorf("session warmup output rank %d, want 2 (logits)", out.Rank())
	}
	return out.Shape[1], nil
}

// Close uninstalls the executor, restoring the model's plain float path.
// The session must not be used afterwards.
func (s *Session) Close() {
	s.pipeline = nil
	nn.SetConvExec(s.net, nil)
}
