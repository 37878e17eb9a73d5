// Package core implements ODQ — output-directed dynamic quantization — the
// primary contribution of the paper. Inputs and weights are quantized to
// k bits (4 in the paper) and split into high-order and low-order parts.
// A lightweight *sensitivity predictor* convolves only the high parts
// (I_HBS × W_HBS, INT2 MACs) and thresholds the partial result into a
// per-output sensitivity bit mask. The *result executor* then computes the
// remaining three partial products (Eq. 3) only for outputs predicted
// sensitive; insensitive outputs keep just the predictor term.
//
// The executor here is numerically exact with respect to that definition:
// sensitive outputs equal the full INT-k convolution bit-for-bit, while
// insensitive outputs carry only the high×high partial. The one execution
// path runs the predictor and the sparse executor on bit-planar
// AND+POPCNT kernels (internal/tensor.Bitplanes) — the software analogue
// of the paper's multi-precision PE array — and stays bit-identical to the
// dense compute-then-select reference (WithDenseReference), the parity
// oracle, because every integer reduction is exact and the float fusion
// is shared.
package core

import (
	"fmt"
	"sync"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ODQ telemetry handles. Partial-product counters mirror the paper's cost
// accounting: the predictor pays one high×high MAC per output tap, the
// executor pays the three remaining partials only for sensitive outputs.
var (
	mODQConvs         = telemetry.GetCounter("odq.convs")
	mODQPredMACs      = telemetry.GetCounter("odq.predictor.partial_products")
	mODQExecMACs      = telemetry.GetCounter("odq.executor.partial_products")
	mODQCacheHits     = telemetry.GetCounter("odq.wcache.hits")
	mODQCacheMisses   = telemetry.GetCounter("odq.wcache.misses")
	mODQInvalidations = telemetry.GetCounter("odq.wcache.invalidations")
)

// Exec is the ODQ convolution executor. All configuration is fixed at
// construction time through Option values; the only mutable state is the
// weight-code cache, the embedded Profiler, and the instrumentation
// accumulators, each guarded by its own lock — so one Exec is safe for
// concurrent Conv calls.
type Exec struct {
	// bits is the total quantization width (4 in the paper); predBits is
	// the width of the high-order part used by the sensitivity predictor
	// (2 in the paper).
	bits     int
	predBits int
	// threshold is the output-sensitivity threshold in units of each
	// sample's mean |predictor output| within the layer (the paper
	// derives thresholds from per-layer output distributions and then
	// uses one value for the whole network, §3/§6.4). An output is
	// sensitive when its |predictor partial| ≥ threshold × mean; 0 marks
	// everything sensitive. Per-sample normalization makes inference
	// batch-invariant (a sample's result never depends on its
	// batch-mates), which the serving layer relies on for bit-identical
	// dynamic batching. layerThresholds optionally overrides it per
	// layer for the per-layer ablation.
	threshold       float32
	layerThresholds map[string]float32
	// noWeightCache disables the per-layer weight-code cache; set during
	// threshold-aware retraining, when weights change every step.
	noWeightCache bool
	// collectPrecision additionally measures per-layer |float − ODQ|
	// precision loss (the §6.1 per-layer list), at the cost of a
	// reference convolution per layer.
	collectPrecision bool
	// dense selects the dense-compute-then-select reference path instead
	// of the sparse executor (parity tests, benchmarks).
	dense bool
	// workers caps result-generation parallelism (sample or outC
	// fan-out); 0 means the full shared pool, 1 forces serial execution.
	workers int

	quant.Profiler

	mu        sync.Mutex
	cacheGen  uint64
	wcache    map[*nn.Conv2D]*weightCodes
	precision map[string]*PrecisionStat
	precOrder []string

	distMu      sync.Mutex
	collectDist bool
	dist        []float32
}

// Option configures an Exec at construction time.
type Option func(*Exec)

// WithBits sets the total quantization width (default 4).
func WithBits(bits int) Option {
	return func(e *Exec) { e.bits = bits }
}

// WithPredBits sets the sensitivity-predictor width (default 2).
func WithPredBits(bits int) Option {
	return func(e *Exec) { e.predBits = bits }
}

// WithLayerThresholds overrides the network-wide threshold for specific
// conv layers (keyed by layer name). The map is copied.
func WithLayerThresholds(m map[string]float32) Option {
	return func(e *Exec) {
		cp := make(map[string]float32, len(m))
		for k, v := range m {
			cp[k] = v
		}
		e.layerThresholds = cp
	}
}

// WithPrecisionCollection measures per-layer |float − ODQ| loss on every
// Conv (costs one reference convolution per layer call).
func WithPrecisionCollection() Option {
	return func(e *Exec) { e.collectPrecision = true }
}

// WithoutWeightCache disables weight-code caching; use while weights are
// being retrained and change between steps.
func WithoutWeightCache() Option {
	return func(e *Exec) { e.noWeightCache = true }
}

// WithWorkers caps the result-generation parallelism at n goroutines
// (1 = serial; 0 / unset = the full shared pool). The cap applies to
// whichever fan-out the default executor picks for a call: over samples
// when the batch has at least as many samples as the shared pool has
// workers, over output channels within each sample otherwise.
func WithWorkers(n int) Option {
	return func(e *Exec) { e.workers = n }
}

// WithProfiling enables per-layer profile recording from construction.
// Call Reset before the measured pass if earlier (calibration, training)
// Conv calls should not count.
func WithProfiling() Option {
	return func(e *Exec) { e.EnableProfiling() }
}

// WithMaskRecording enables profiling and retains per-output sensitivity
// masks for the accelerator simulator.
func WithMaskRecording() Option {
	return func(e *Exec) { e.EnableMaskRecording() }
}

// WithDenseReference switches result generation to the dense
// compute-then-select reference implementation. The sparse default is
// bit-identical; this path exists for parity tests and benchmarks.
func WithDenseReference() Option {
	return func(e *Exec) { e.dense = true }
}

// PrecisionStat accumulates per-layer precision loss of ODQ relative to
// the float convolution.
type PrecisionStat struct {
	Name  string
	Index int
	Sum   float64
	Count int64
	Max   float64
}

// Mean returns the average absolute precision loss.
func (p *PrecisionStat) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

// NewExec builds an ODQ executor with the paper's defaults (INT4 codes,
// 2-bit predictor) modified by the given options. It panics on an invalid
// bits/predBits combination.
func NewExec(threshold float32, opts ...Option) *Exec {
	e := &Exec{
		bits:      4,
		predBits:  2,
		threshold: threshold,
		wcache:    make(map[*nn.Conv2D]*weightCodes),
		precision: make(map[string]*PrecisionStat),
	}
	for _, o := range opts {
		o(e)
	}
	if e.bits < 2 || e.bits > 16 {
		panic(fmt.Sprintf("core: NewExec bits %d out of range [2,16]", e.bits))
	}
	if e.predBits < 1 || e.predBits >= e.bits {
		panic(fmt.Sprintf("core: NewExec predBits %d out of range [1,bits)", e.predBits))
	}
	return e
}

// Bits returns the total quantization width.
func (e *Exec) Bits() int { return e.bits }

// PredBits returns the sensitivity-predictor width.
func (e *Exec) PredBits() int { return e.predBits }

// Threshold returns the current network-wide sensitivity threshold (the
// threshold search in this package adjusts it between passes).
func (e *Exec) Threshold() float32 { return e.threshold }

// lowBits returns the width of the low-order part.
func (e *Exec) lowBits() int { return e.bits - e.predBits }

// weightCodes bundles a layer's cached high/low weight-code split with the
// bit-planar forms the sparse kernels consume (one row per output
// channel, InC·K·K lanes in the (kh, kw, c) order of
// tensor.PackConvRows). The bitplanes are skipped on the dense reference
// path, which reads the row-major int32 codes directly; the high-density
// executor branch also reads the row-major codes, as the A operand of its
// wide int-GEMM partials.
type weightCodes struct {
	hi, lo     *tensor.IntTensor
	hiBP, loBP *tensor.Bitplanes
}

func (e *Exec) buildWeightCodes(layer *nn.Conv2D) *weightCodes {
	q := quant.WeightCodes(layer.EffectiveWeight(), e.bits)
	hi, lo := quant.SplitCodesRounded(q, e.lowBits(), true)
	wc := &weightCodes{hi: hi, lo: lo}
	if !e.dense {
		outC, inC, k := hi.Shape[0], hi.Shape[1], hi.Shape[2]
		lanes := inC * k * k
		wc.hiBP = tensor.NewBitplanes(outC, lanes, hi.Bits, true)
		wc.hiBP.PackConvWeights(hi.Data, inC, k)
		wc.loBP = tensor.NewBitplanes(outC, lanes, lo.Bits, true)
		wc.loBP.PackConvWeights(lo.Data, inC, k)
	}
	return wc
}

// weights returns the cached weight codes for a layer. Quantization runs
// outside the lock; the result is stored only if no InvalidateCache
// intervened (generation check), so a retraining step can never have its
// invalidation undone by an in-flight Conv that read the old
// EffectiveWeight.
func (e *Exec) weights(layer *nn.Conv2D) *weightCodes {
	if e.noWeightCache {
		return e.buildWeightCodes(layer)
	}
	e.mu.Lock()
	if wc, ok := e.wcache[layer]; ok {
		e.mu.Unlock()
		mODQCacheHits.Inc()
		return wc
	}
	gen := e.cacheGen
	e.mu.Unlock()
	mODQCacheMisses.Inc()

	wc := e.buildWeightCodes(layer)

	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.wcache[layer]; ok {
		return cached
	}
	if e.cacheGen == gen {
		e.wcache[layer] = wc
	}
	return wc
}

// InvalidateCache drops cached weight codes. The retraining contract:
// call it after every weight mutation BEFORE issuing new Conv calls.
// Conv calls in flight across the invalidation may still return results
// from the pre-update weights, but generation tracking guarantees they
// cannot re-populate the cache with stale codes.
func (e *Exec) InvalidateCache() {
	mODQInvalidations.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cacheGen++
	e.wcache = make(map[*nn.Conv2D]*weightCodes)
}

// PrecisionStats returns per-layer precision-loss records in layer order.
func (e *Exec) PrecisionStats() []*PrecisionStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*PrecisionStat, 0, len(e.precOrder))
	for _, n := range e.precOrder {
		out = append(out, e.precision[n])
	}
	return out
}

// ResetPrecision clears the precision-loss records.
func (e *Exec) ResetPrecision() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.precision = make(map[string]*PrecisionStat)
	e.precOrder = nil
}

// fuse combines the predictor partial with the three executor partials
// for a sensitive output. Every execution path calls this single function,
// so the float rounding (including any FMA contraction the compiler
// chooses) is identical and the paths stay bit-exact with each other and
// with the original implementation.
func fuse(pred, hl, lh, ll int64, predScale, sHL, sLH, sLL float32) float32 {
	v := float32(pred) * predScale
	v += float32(hl)*sHL + float32(lh)*sLH + float32(ll)*sLL
	return v
}

// Conv implements nn.ConvExecutor: sensitivity prediction over the
// high-order parts followed by result generation for sensitive outputs.
func (e *Exec) Conv(x *tensor.Tensor, layer *nn.Conv2D) *tensor.Tensor {
	qx := quant.ActCodesInto(tensor.GetInt32(len(x.Data)), x, e.bits)
	out, _ := e.convQ(qx, layer, nil, x)
	tensor.PutInt32(qx.Data)
	return out
}

// convQ is the shared conv body over integer activation codes. With a nil
// epilogue it returns the raw float partial-sum tensor (bias is NOT
// applied — nn.Conv2D.Forward adds it, as before). With an epilogue it
// returns packed INT4 codes of the requantized activation instead, and no
// float tensor is materialized on the default path. xRef, when non-nil, is
// the original float input used for precision-loss collection. qx stays
// the caller's; the code splits and the mask live in pooled scratch.
func (e *Exec) convQ(qx *tensor.IntTensor, layer *nn.Conv2D, epi *Epilogue, xRef *tensor.Tensor) (*tensor.Tensor, *tensor.PackedI4) {
	spConv := telemetry.StartSpan("odq.conv")
	defer spConv.End()
	mODQConvs.Inc()
	n := qx.Shape[0]
	xh, xl := quant.SplitCodesRoundedInto(tensor.GetInt32(len(qx.Data)), tensor.GetInt32(len(qx.Data)),
		qx, e.lowBits(), false)
	wc := e.weights(layer)
	wh, wl := wc.hi, wc.lo

	g := quant.AccumGeometry(xh, wh, layer.Stride, layer.Pad)
	perSample := g.TotalOutputs()
	total := n * perSample
	predScale := xh.Scale * wh.Scale
	th := e.threshold
	if v, ok := e.layerThresholds[layer.Name]; ok {
		th = v
	}
	sHL := xh.Scale * wl.Scale
	sLH := xl.Scale * wh.Scale
	sLL := xl.Scale * wl.Scale

	mask := tensor.GetBool(total)
	var ev *epiEval
	var codes []uint8
	if epi != nil {
		ev = epi.eval()
		codes = tensor.GetUint8(total)
	}
	var out *tensor.Tensor
	if epi == nil || e.dense {
		out = tensor.New(n, g.OutC, g.OutH, g.OutW)
	}

	var sensitive int64
	if e.dense {
		// Reference two-stage path: batched int-GEMM predictor, then
		// dense result generation, then (optionally) the epilogue as a
		// post-pass over the float tensor.
		spPred := telemetry.StartSpan("odq.predictor")
		predAcc := tensor.GetInt64(total)
		quant.ConvAccumInto(predAcc, xh, wh, layer.Stride, layer.Pad)
		for s := 0; s < n; s++ {
			e.maskSample(predAcc[s*perSample:(s+1)*perSample], mask[s*perSample:(s+1)*perSample], predScale, th)
		}
		sensitive = quant.MaskDensity(mask)
		spPred.End()

		spExec := telemetry.StartSpan("odq.executor")
		e.resultDense(out, predAcc, mask, xh, xl, wh, wl, layer, predScale, sHL, sLH, sLL)
		tensor.PutInt64(predAcc)
		spExec.End()
		if ev != nil {
			cols := g.ColCols()
			for i := range out.Data {
				codes[i] = ev.code(out.Data[i], (i/cols)%g.OutC)
			}
		}
	} else {
		sensitive = e.resultBitplane(out, codes, ev, mask, xh, xl, wc, g, predScale, th, sHL, sLH, sLL)
	}
	if telemetry.Enabled() {
		macsPerOut := int64(g.ColRows())
		mODQPredMACs.Add(int64(total) * macsPerOut)
		mODQExecMACs.Add(3 * sensitive * macsPerOut)
	}

	e.Record(&quant.LayerProfile{
		Name:             layer.Name,
		Geom:             g,
		Batch:            n,
		TotalOutputs:     int64(total),
		SensitiveOutputs: sensitive,
		TotalMACs:        int64(n) * g.TotalMACs(),
		Mask:             mask,
	})
	tensor.PutBool(mask)

	if e.collectPrecision && xRef != nil && epi == nil {
		e.collectPrecisionLoss(xRef, out, layer, g)
	}
	tensor.PutInt32(xh.Data)
	tensor.PutInt32(xl.Data)
	var packed *tensor.PackedI4
	if epi != nil {
		packed = tensor.NewPackedI4(n, g.OutC, g.OutH, g.OutW)
		tensor.PackI4Into(codes[:total], packed.Data)
		tensor.PutUint8(codes)
	}
	return out, packed
}

// maskSample thresholds one sample's predictor accumulators into its
// sensitivity mask. The threshold is relative to the sample's mean
// |predictor output| in the layer (the paper derives its threshold from
// per-layer output distributions, §3); this keeps one network-wide
// threshold value meaningful across layers whose raw output scales
// differ. Normalizing per sample (not per batch) makes every sample's
// mask — and therefore its output — independent of whatever it happens to
// be batched with, so a dynamically batched serving pass is bit-identical
// to running each request alone.
func (e *Exec) maskSample(seg []int64, mseg []bool, predScale, th float32) {
	var meanAbs float64
	for _, a := range seg {
		v := float64(a) * float64(predScale)
		if v < 0 {
			v = -v
		}
		meanAbs += v
	}
	if len(seg) > 0 {
		meanAbs /= float64(len(seg))
	}
	cut := float32(meanAbs) * th
	for i, a := range seg {
		v := float32(a) * predScale
		if v < 0 {
			v = -v
		}
		mseg[i] = v >= cut
	}
	if e.collectDist {
		e.sampleDist(seg, predScale, float32(meanAbs))
	}
}

// bitplaneGEMMCutover is the realized-density point where the executor
// switches from per-output bitplane dot products to batched int-GEMM
// partials. Below it, skipping insensitive outputs wins; above it, the
// blocked (AVX2 where available) GEMM's throughput beats per-output
// scatter even though it computes everything. Both branches are exact
// integer arithmetic into the same fuse(), so the switch is invisible in
// the output — it only moves work.
const bitplaneGEMMCutover = 0.45

// resultBitplane is the sparse execution path: per sample, the high
// activation codes are bitplane-packed straight from the [C,H,W] codes
// (tensor.PackConvRows: one C-bit chunk per input pixel, rows assembled
// by shift/OR; no im2col matrix is ever materialized), the sensitivity
// predictor runs as AND+POPCNT row products (tensor.BitplaneMulRow), and
// the executor computes the three remaining partials only as directed by
// the realized mask — fused per-output bitplane dots
// (tensor.BitplaneDot3) at low density, wide int-GEMM partials (weight
// codes × im2col, the same orientation the dense path uses) above
// bitplaneGEMMCutover. Exact integer arithmetic end to end keeps it
// bit-identical to the dense reference; the shared fuse() keeps the float
// combination identical. Writes requantized codes directly when ev is
// non-nil (fused epilogue), float partial sums into out otherwise.
// Returns the sensitive count.
//
// A batch with at least as many samples as the shared pool has workers
// runs one pool task per sample, each with its own scratch and serial
// per-outC loops; smaller batches run their samples in turn and fan each
// one out over output channels. Either way e.workers caps the fan-out,
// and every output is written by exactly one task.
func (e *Exec) resultBitplane(out *tensor.Tensor, codes []uint8, ev *epiEval, mask []bool,
	xh, xl *tensor.IntTensor, wc *weightCodes, g tensor.ConvGeom,
	predScale, th, sHL, sLH, sLL float32) int64 {
	n := xh.Shape[0]
	rows, cols := g.ColRows(), g.ColCols()
	perSample := g.TotalOutputs()
	per := g.InC * g.InH * g.InW
	pool := tensor.DefaultPool()
	outC := g.OutC
	whBP, wlBP := wc.hiBP, wc.loBP

	// sample runs one sample end to end with its outC loops capped at
	// inner workers and returns its sensitive count.
	sample := func(s, inner int) int64 {
		spPred := telemetry.StartSpan("odq.predictor")
		predAcc := tensor.GetInt64(perSample)
		xhBP := &tensor.Bitplanes{R: cols, L: rows, P: xh.Bits, W: tensor.BitplaneWords(rows),
			Data: tensor.GetUint64(tensor.BitplaneSize(cols, rows, xh.Bits))}
		tensor.PackConvRows(xh.Data[s*per:(s+1)*per], g, xhBP)
		pool.ParallelLimited(inner, outC, func(oc int) {
			tensor.BitplaneMulRow(predAcc[oc*cols:(oc+1)*cols], whBP, oc, xhBP)
		})
		mseg := mask[s*perSample : (s+1)*perSample]
		e.maskSample(predAcc, mseg, predScale, th)
		sens := quant.MaskDensity(mseg)
		spPred.End()

		spExec := telemetry.StartSpan("odq.executor")
		sampleBase := s * perSample
		if float64(sens) >= bitplaneGEMMCutover*float64(perSample) {
			hlAcc := tensor.GetInt64(perSample)
			lhAcc := tensor.GetInt64(perSample)
			llAcc := tensor.GetInt64(perSample)
			colBuf := tensor.GetInt32(rows * cols)
			tensor.Im2colInt(xh.Data[s*per:(s+1)*per], g, colBuf)
			tensor.GemmInt(wc.lo.Data, colBuf, hlAcc, outC, rows, cols)
			tensor.Im2colInt(xl.Data[s*per:(s+1)*per], g, colBuf)
			tensor.GemmInt(wc.hi.Data, colBuf, lhAcc, outC, rows, cols)
			tensor.GemmInt(wc.lo.Data, colBuf, llAcc, outC, rows, cols)
			pool.ParallelLimited(inner, outC, func(oc int) {
				for i := oc * cols; i < (oc+1)*cols; i++ {
					v := float32(predAcc[i]) * predScale
					if mseg[i] {
						v = fuse(predAcc[i], hlAcc[i], lhAcc[i], llAcc[i], predScale, sHL, sLH, sLL)
					}
					if ev != nil {
						codes[sampleBase+i] = ev.code(v, oc)
					} else {
						out.Data[sampleBase+i] = v
					}
				}
			})
			tensor.PutInt32(colBuf)
			tensor.PutInt64(hlAcc)
			tensor.PutInt64(lhAcc)
			tensor.PutInt64(llAcc)
		} else {
			xlBP := &tensor.Bitplanes{R: cols, L: rows, P: xl.Bits, W: tensor.BitplaneWords(rows), Signed: true,
				Data: tensor.GetUint64(tensor.BitplaneSize(cols, rows, xl.Bits))}
			tensor.PackConvRows(xl.Data[s*per:(s+1)*per], g, xlBP)
			pool.ParallelLimited(inner, outC, func(oc int) {
				base := oc * cols
				for j := 0; j < cols; j++ {
					i := base + j
					v := float32(predAcc[i]) * predScale
					if mseg[i] {
						hl, lh, ll := tensor.BitplaneDot3(xhBP, xlBP, j, whBP, wlBP, oc)
						v = fuse(predAcc[i], hl, lh, ll, predScale, sHL, sLH, sLL)
					}
					if ev != nil {
						codes[sampleBase+i] = ev.code(v, oc)
					} else {
						out.Data[sampleBase+i] = v
					}
				}
			})
			tensor.PutUint64(xlBP.Data)
		}
		spExec.End()
		tensor.PutInt64(predAcc)
		tensor.PutUint64(xhBP.Data)
		return sens
	}

	if n < pool.Size() {
		var sensitive int64
		for s := 0; s < n; s++ {
			sensitive += sample(s, e.workers)
		}
		return sensitive
	}
	sens := tensor.GetInt64(n)
	pool.ParallelLimited(e.workers, n, func(s int) { sens[s] = sample(s, 1) })
	var sensitive int64
	for _, c := range sens {
		sensitive += c
	}
	tensor.PutInt64(sens)
	return sensitive
}

// resultDense is the dense-compute-then-select reference: all three
// partials are computed for every output and discarded where the mask is
// false. Kept (behind WithDenseReference) as the parity oracle for
// resultBitplane.
func (e *Exec) resultDense(out *tensor.Tensor, predAcc []int64, mask []bool,
	xh, xl, wh, wl *tensor.IntTensor, layer *nn.Conv2D,
	predScale, sHL, sLH, sLL float32) {
	total := len(predAcc)
	hlAcc := tensor.GetInt64(total)
	lhAcc := tensor.GetInt64(total)
	llAcc := tensor.GetInt64(total)
	quant.ConvAccumInto(hlAcc, xh, wl, layer.Stride, layer.Pad)
	quant.ConvAccumInto(lhAcc, xl, wh, layer.Stride, layer.Pad)
	quant.ConvAccumInto(llAcc, xl, wl, layer.Stride, layer.Pad)
	for i := range predAcc {
		if mask[i] {
			out.Data[i] = fuse(predAcc[i], hlAcc[i], lhAcc[i], llAcc[i], predScale, sHL, sLH, sLL)
		} else {
			out.Data[i] = float32(predAcc[i]) * predScale
		}
	}
	tensor.PutInt64(hlAcc)
	tensor.PutInt64(lhAcc)
	tensor.PutInt64(llAcc)
}

func (e *Exec) collectPrecisionLoss(x, odqOut *tensor.Tensor, layer *nn.Conv2D, g tensor.ConvGeom) {
	ref := floatConv(x, layer.EffectiveWeight(), g)
	e.mu.Lock()
	defer e.mu.Unlock()
	stat, ok := e.precision[layer.Name]
	if !ok {
		stat = &PrecisionStat{Name: layer.Name, Index: len(e.precOrder)}
		e.precision[layer.Name] = stat
		e.precOrder = append(e.precOrder, layer.Name)
	}
	for i := range ref.Data {
		d := float64(ref.Data[i] - odqOut.Data[i])
		if d < 0 {
			d = -d
		}
		stat.Sum += d
		stat.Count++
		if d > stat.Max {
			stat.Max = d
		}
	}
}

// sampleDist subsamples predictor magnitudes (normalized by the layer's
// mean |predictor output|, i.e. in threshold units) for threshold
// initialization.
func (e *Exec) sampleDist(acc []int64, scale, meanAbs float32) {
	if meanAbs == 0 {
		return
	}
	e.distMu.Lock()
	defer e.distMu.Unlock()
	stride := len(acc)/4096 + 1
	for i := 0; i < len(acc); i += stride {
		v := float32(acc[i]) * scale / meanAbs
		if v < 0 {
			v = -v
		}
		e.dist = append(e.dist, v)
	}
}

// SensitiveFraction returns the overall fraction of outputs predicted
// sensitive across the recorded profiles.
func (e *Exec) SensitiveFraction() float64 {
	var sens, tot int64
	for _, p := range e.Profiles() {
		sens += p.SensitiveOutputs
		tot += p.TotalOutputs
	}
	if tot == 0 {
		return 0
	}
	return float64(sens) / float64(tot)
}

// floatConv is the reference float convolution used by instrumentation.
func floatConv(x, w *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	n := x.Shape[0]
	rows, cols := g.ColRows(), g.ColCols()
	out := tensor.New(n, g.OutC, g.OutH, g.OutW)
	per := g.InC * g.InH * g.InW
	tensor.DefaultPool().ParallelN(n, func(s int) {
		buf := tensor.GetFloat32(rows * cols)
		tensor.Im2col(x.Data[s*per:(s+1)*per], g, buf)
		tensor.Gemm(w.Data, buf, out.Data[s*g.OutC*cols:(s+1)*g.OutC*cols], g.OutC, rows, cols)
		tensor.PutFloat32(buf)
	})
	return out
}

var _ nn.ConvExecutor = (*Exec)(nil)
