// Package infer is the common construction and lifecycle layer over the
// repo's quantized-inference executors. It gives the executor family one
// interface (Executor), one scheme-name registry with one factory
// (NewFromScheme — the single source of truth for valid scheme names,
// shared by odq-infer, odq-serve and the experiment lab), and one
// resident-session object (Session) that owns a model plus its installed
// executor for the lifetime of a serving process: weight codes stay
// packed in the executor's per-layer caches, scratch comes from the
// process-wide pools, and hot reload invalidates those caches exactly
// once per weight swap.
package infer

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/drq"
	"repro/internal/nn"
	"repro/internal/quant"
)

// Executor is the interface every quantized conv executor in this repo
// satisfies: it can run a convolution in place of the float path, drop
// its packed weight-code caches after a weight mutation, and report the
// per-layer profiles it recorded. Implementations: core.Exec (ODQ),
// quant.StaticExec (per-tensor and per-channel scales), drq.Exec.
type Executor interface {
	nn.ConvExecutor
	// InvalidateCache drops cached weight codes. The contract (from the
	// shared generation-checked quant.WeightCache): call it after every
	// weight mutation BEFORE issuing new Conv calls; in-flight Conv calls
	// can never re-populate a cache with stale codes.
	InvalidateCache()
	// Profiles returns the recorded per-layer profiles in network order;
	// it is empty unless the executor was built with profiling on.
	Profiles() []*quant.LayerProfile
}

// Compile-time checks that the whole family satisfies Executor.
var (
	_ Executor = (*core.Exec)(nil)
	_ Executor = (*quant.StaticExec)(nil)
	_ Executor = (*drq.Exec)(nil)
)

// options collects the cross-scheme construction knobs. Scheme builders
// map them onto their concrete executor's option set; knobs a scheme does
// not have (threshold on a static executor) are ignored.
type options struct {
	threshold     float32
	profiling     bool
	maskRecording bool
	packedDomain  bool
}

// Option configures NewFromScheme / NewSession.
type Option func(*options)

// WithThreshold sets the sensitivity threshold of the odq scheme; the
// other schemes ignore it.
func WithThreshold(t float32) Option {
	return func(o *options) { o.threshold = t }
}

// WithProfiling enables per-layer profile recording on schemes that
// support it.
func WithProfiling() Option {
	return func(o *options) { o.profiling = true }
}

// WithMaskRecording enables profiling and retains per-output sensitivity
// masks (odq only; implies WithProfiling there).
func WithMaskRecording() Option {
	return func(o *options) { o.maskRecording = true }
}

// WithPackedDomain makes NewSession compile the packed-INT4
// quantized-domain pipeline (odq scheme on a flat sequential model only;
// construction fails otherwise). NewFromScheme ignores it.
func WithPackedDomain() Option {
	return func(o *options) { o.packedDomain = true }
}

// Scheme describes one quantization scheme selectable by name.
type Scheme struct {
	// Name is the canonical CLI spelling (e.g. "int8", "drq84", "odq").
	Name string
	// Description is a one-line human summary for -help output.
	Description string
	// TailOnly marks dynamic schemes that keep the first
	// (image-consuming) conv at baseline precision, per DoReFa practice
	// (see nn.SetConvExecTail).
	TailOnly bool
	// build constructs the executor; nil for the plain float path.
	build func(o options) Executor
}

// schemes is the single source of truth for valid scheme names, in
// canonical (help/reporting) order. Everything that parses a -scheme
// flag goes through NewFromScheme / SchemeByName.
var schemes = []Scheme{
	{Name: "float", Description: "plain float32 inference (no executor)"},
	{Name: "int16", Description: "static INT16, per-tensor scales",
		build: func(o options) Executor { return quant.NewStaticExec(16, staticOpts(o)...) }},
	{Name: "int8", Description: "static INT8, per-tensor scales",
		build: func(o options) Executor { return quant.NewStaticExec(8, staticOpts(o)...) }},
	{Name: "int4", Description: "static INT4, per-tensor scales",
		build: func(o options) Executor { return quant.NewStaticExec(4, staticOpts(o)...) }},
	{Name: "int8pc", Description: "static INT8, per-output-channel weight scales",
		build: func(o options) Executor { return quant.NewPerChannelExec(8, staticOpts(o)...) }},
	{Name: "int4pc", Description: "static INT4, per-output-channel weight scales",
		build: func(o options) Executor { return quant.NewPerChannelExec(4, staticOpts(o)...) }},
	{Name: "drq84", Description: "DRQ input-directed dynamic quantization, 8/4 bits", TailOnly: true,
		build: func(o options) Executor { return drq.NewExec(8, 4, drqOpts(o)...) }},
	{Name: "drq42", Description: "DRQ input-directed dynamic quantization, 4/2 bits", TailOnly: true,
		build: func(o options) Executor { return drq.NewExec(4, 2, drqOpts(o)...) }},
	{Name: "odq", Description: "ODQ output-directed dynamic quantization (INT4 codes, 2-bit predictor)", TailOnly: true,
		build: func(o options) Executor { return core.NewExec(o.threshold, odqOpts(o)...) }},
}

func staticOpts(o options) []quant.StaticOption {
	var opts []quant.StaticOption
	if o.profiling || o.maskRecording {
		opts = append(opts, quant.WithStaticProfiling())
	}
	return opts
}

func drqOpts(o options) []drq.Option {
	var opts []drq.Option
	if o.profiling || o.maskRecording {
		opts = append(opts, drq.WithProfiling())
	}
	return opts
}

func odqOpts(o options) []core.Option {
	var opts []core.Option
	if o.profiling {
		opts = append(opts, core.WithProfiling())
	}
	if o.maskRecording {
		opts = append(opts, core.WithMaskRecording())
	}
	return opts
}

// SchemeNames returns the valid scheme names in canonical order.
func SchemeNames() []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name
	}
	return out
}

// SchemeHelp returns the comma-joined scheme names for flag help text.
func SchemeHelp() string { return strings.Join(SchemeNames(), ", ") }

// SchemeByName returns the scheme descriptor for a canonical name, or an
// error naming the valid alternatives.
func SchemeByName(name string) (*Scheme, error) {
	for i := range schemes {
		if schemes[i].Name == name {
			return &schemes[i], nil
		}
	}
	return nil, fmt.Errorf("infer: unknown scheme %q (want one of %s)", name, SchemeHelp())
}

// NewFromScheme builds the executor for a scheme name. The "float" scheme
// returns a nil Executor (the plain float path: install nothing). Unknown
// names return an error, never a panic.
func NewFromScheme(name string, opts ...Option) (Executor, error) {
	s, err := SchemeByName(name)
	if err != nil {
		return nil, err
	}
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if s.build == nil {
		return nil, nil
	}
	return s.build(o), nil
}

// Install installs exec on net following the scheme's convention: every
// conv for static schemes, every conv but the first for dynamic ones.
// A nil exec restores the float path everywhere.
func Install(net nn.Module, s *Scheme, exec Executor) {
	if exec == nil {
		nn.SetConvExec(net, nil)
		return
	}
	if s != nil && s.TailOnly {
		nn.SetConvExecTail(net, exec)
		return
	}
	nn.SetConvExec(net, exec)
}
