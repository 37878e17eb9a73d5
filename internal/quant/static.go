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
// integer arithmetic. Weights take one scale per tensor (NewStaticExec)
// or one per output channel (NewPerChannelExec, the per-channel ablation
// of the static baselines); either way the executor caches one scale per
// output channel and dequantizes through DequantAccumPerChannel.
type StaticExec struct {
	bits       int
	perChannel bool
	Profiler

	wcache WeightCache[staticWeights]
}

// staticWeights is one layer's cached weight codes with one scale per
// output channel (all equal on the per-tensor path).
type staticWeights struct {
	codes  *tensor.IntTensor
	scales []float32
}

// StaticOption configures a StaticExec at construction time.
type StaticOption func(*StaticExec)

// WithStaticProfiling enables per-layer profile recording.
func WithStaticProfiling() StaticOption {
	return func(e *StaticExec) { e.EnableProfiling() }
}

// NewStaticExec builds a static INT-k executor with per-tensor weight
// scales.
func NewStaticExec(bits int, opts ...StaticOption) *StaticExec {
	if bits < 1 || bits > 16 {
		panic("quant: NewStaticExec bits out of range [1,16]")
	}
	e := &StaticExec{bits: bits}
	for _, o := range opts {
		o(e)
	}
	return e
}

// NewPerChannelExec builds a static INT-k executor with
// per-output-channel weight scales (WeightCodesPerChannel).
func NewPerChannelExec(bits int, opts ...StaticOption) *StaticExec {
	e := NewStaticExec(bits, opts...)
	e.perChannel = true
	return e
}

// Bits returns the configured bit width.
func (e *StaticExec) Bits() int { return e.bits }

func (e *StaticExec) buildWeights(layer *nn.Conv2D) staticWeights {
	w := layer.EffectiveWeight()
	if e.perChannel {
		codes, scales := WeightCodesPerChannel(w, e.bits)
		return staticWeights{codes: codes, scales: scales}
	}
	codes := WeightCodes(w, e.bits)
	scales := make([]float32, codes.Shape[0])
	for o := range scales {
		scales[o] = codes.Scale
	}
	return staticWeights{codes: codes, scales: scales}
}

// InvalidateCache drops cached weight codes. Call it after every weight
// mutation (retraining step, fine-tune epoch) BEFORE issuing new Conv
// calls.
func (e *StaticExec) InvalidateCache() { e.wcache.Invalidate() }

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
	w, hit := e.wcache.Get(layer, e.buildWeights)
	if hit {
		mStaticCacheHits.Inc()
	} else {
		mStaticCacheMisses.Inc()
	}
	g := AccumGeometry(qx, w.codes, layer.Stride, layer.Pad)
	n := x.Shape[0]
	acc := tensor.GetInt64(n * g.TotalOutputs())
	ConvAccumInto(acc, qx, w.codes, layer.Stride, layer.Pad)
	out := DequantAccumPerChannel(acc, qx.Scale, w.scales, n, g)
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
