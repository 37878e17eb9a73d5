package quant

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// LayerProfile records what one conv layer did under a quantization scheme
// during inference. The accelerator simulator consumes these records —
// mirroring the paper's methodology of dumping per-layer mask maps from the
// framework into a cycle simulator (§5.2).
type LayerProfile struct {
	// Name is the conv layer's name; Index its order in the network
	// (C1, C2, ... in the paper's figures).
	Name  string
	Index int
	Geom  tensor.ConvGeom
	Batch int

	// TotalOutputs counts output features across the batch.
	TotalOutputs int64
	// SensitiveOutputs counts outputs the scheme computed at high
	// precision (ODQ: predicted-sensitive; DRQ/static: not used the same
	// way — see scheme docs).
	SensitiveOutputs int64

	// HighInputMACs counts MACs whose input operand was high-precision;
	// TotalMACs counts all MACs. Used by the DRQ cost model.
	HighInputMACs int64
	TotalMACs     int64

	// Mask, when retained, is the per-output sensitivity bitmask laid
	// out [batch][outC*outH*outW] flattened; true = sensitive.
	Mask []bool
}

// Profiler accumulates per-layer profiles during an inference pass.
// Executors embed it. Enable it at construction time via the executor's
// profiling option (or EnableProfiling directly); callers Reset it between
// runs to discard e.g. calibration-pass records.
type Profiler struct {
	enabled   bool
	keepMasks bool
	mu        sync.Mutex
	profiles  []*LayerProfile
	index     map[string]int
}

// EnableProfiling turns on per-layer profile recording.
func (p *Profiler) EnableProfiling() { p.enabled = true }

// EnableMaskRecording turns on profiling and additionally retains the
// per-output sensitivity masks (large: one bool per output feature).
func (p *Profiler) EnableMaskRecording() {
	p.enabled = true
	p.keepMasks = true
}

// ProfilingEnabled reports whether Record is collecting.
func (p *Profiler) ProfilingEnabled() bool { return p.enabled }

// Reset clears accumulated profiles.
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.profiles = nil
	p.index = nil
}

// Profiles returns the accumulated per-layer records in network order.
func (p *Profiler) Profiles() []*LayerProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*LayerProfile(nil), p.profiles...)
}

// Record merges a layer observation into the profile set, accumulating
// counts across batches for repeat visits to the same layer. Retained
// masks are copied, so lp.Mask stays the caller's to reuse. Telemetry
// publication happens unconditionally (every executor calls Record), so
// per-layer counters are live even when profile retention is off.
func (p *Profiler) Record(lp *LayerProfile) {
	recordLayerTelemetry(lp)
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.index == nil {
		p.index = make(map[string]int)
	}
	if i, ok := p.index[lp.Name]; ok {
		ex := p.profiles[i]
		ex.Batch += lp.Batch
		ex.TotalOutputs += lp.TotalOutputs
		ex.SensitiveOutputs += lp.SensitiveOutputs
		ex.HighInputMACs += lp.HighInputMACs
		ex.TotalMACs += lp.TotalMACs
		if p.keepMasks {
			ex.Mask = append(ex.Mask, lp.Mask...)
		}
		return
	}
	lp.Index = len(p.profiles)
	if p.keepMasks {
		// The caller may recycle its mask buffer once Record returns.
		lp.Mask = append([]bool(nil), lp.Mask...)
	} else {
		lp.Mask = nil
	}
	p.index[lp.Name] = len(p.profiles)
	p.profiles = append(p.profiles, lp)
}

// StaticExec is the DoReFa-Net-style static quantization executor: every
// conv input and weight is quantized to the same fixed bit width (INT16,
// INT8, INT4 ... per the paper's baselines) and the convolution runs in
// integer arithmetic.
type StaticExec struct {
	bits int
	Profiler

	mu       sync.Mutex
	cacheGen uint64
	wcache   map[*nn.Conv2D]*tensor.IntTensor
}

// StaticOption configures a StaticExec at construction time.
type StaticOption func(*StaticExec)

// WithStaticProfiling enables per-layer profile recording.
func WithStaticProfiling() StaticOption {
	return func(e *StaticExec) { e.EnableProfiling() }
}

// NewStaticExec builds a static INT-k executor.
func NewStaticExec(bits int, opts ...StaticOption) *StaticExec {
	if bits < 1 || bits > 16 {
		panic("quant: NewStaticExec bits out of range [1,16]")
	}
	e := &StaticExec{bits: bits, wcache: make(map[*nn.Conv2D]*tensor.IntTensor)}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Bits returns the configured bit width.
func (e *StaticExec) Bits() int { return e.bits }

// weightCodes returns cached integer codes for a layer's weights.
// Quantization runs outside the lock; the result is stored only if no
// InvalidateCache intervened, so a concurrent retraining step can never be
// overwritten by codes computed from the stale weights.
func (e *StaticExec) weightCodes(layer *nn.Conv2D) *tensor.IntTensor {
	e.mu.Lock()
	if q, ok := e.wcache[layer]; ok {
		e.mu.Unlock()
		mStaticCacheHits.Inc()
		return q
	}
	mStaticCacheMisses.Inc()
	gen := e.cacheGen
	e.mu.Unlock()

	q := WeightCodes(layer.EffectiveWeight(), e.bits)

	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.wcache[layer]; ok {
		return cur
	}
	if e.cacheGen == gen {
		e.wcache[layer] = q
	}
	return q
}

// InvalidateCache drops cached weight codes. Call it after every weight
// mutation (retraining step, fine-tune epoch) BEFORE issuing new Conv
// calls; in-flight Conv calls started before the invalidation may still
// return results computed from the old weights, but can no longer poison
// the cache for later calls.
func (e *StaticExec) InvalidateCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cacheGen++
	e.wcache = make(map[*nn.Conv2D]*tensor.IntTensor)
}

// Static-executor telemetry handles (bound to the registry current at
// package init; see the telemetry package docs).
var (
	mStaticConvs       = telemetry.GetCounter("quant.static.convs")
	mStaticCacheHits   = telemetry.GetCounter("quant.static.wcache.hits")
	mStaticCacheMisses = telemetry.GetCounter("quant.static.wcache.misses")
)

// Conv implements nn.ConvExecutor.
func (e *StaticExec) Conv(x *tensor.Tensor, layer *nn.Conv2D) *tensor.Tensor {
	sp := telemetry.StartSpan("quant.static.conv")
	defer sp.End()
	mStaticConvs.Inc()
	qx := ActCodes(x, e.bits)
	qw := e.weightCodes(layer)
	g := AccumGeometry(qx, qw, layer.Stride, layer.Pad)
	n := x.Shape[0]
	acc := tensor.GetInt64(n * g.TotalOutputs())
	ConvAccumInto(acc, qx, qw, layer.Stride, layer.Pad)
	out := DequantAccum(acc, qx.Scale*qw.Scale, n, g)
	tensor.PutInt64(acc)
	e.Record(&LayerProfile{
		Name:         layer.Name,
		Geom:         g,
		Batch:        n,
		TotalOutputs: int64(n) * int64(g.TotalOutputs()),
		TotalMACs:    int64(n) * g.TotalMACs(),
	})
	return out
}

var _ nn.ConvExecutor = (*StaticExec)(nil)
