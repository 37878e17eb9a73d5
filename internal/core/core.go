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
	"math"
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
	// dense selects the dense-compute-then-select reference path instead
	// of the sparse executor (parity tests, benchmarks).
	dense bool
	// workers caps result-generation parallelism (sample or outC
	// fan-out); 0 means the full shared pool, 1 forces serial execution.
	workers int

	quant.Profiler

	wcache quant.WeightCache[*weightCodes]

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

// NewExec builds an ODQ executor with the paper's defaults (INT4 codes,
// 2-bit predictor) modified by the given options. It panics on an invalid
// bits/predBits combination.
func NewExec(threshold float32, opts ...Option) *Exec {
	e := &Exec{
		bits:      4,
		predBits:  2,
		threshold: threshold,
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

// Threshold returns the current network-wide sensitivity threshold (the
// threshold search in this package adjusts it between passes).
func (e *Exec) Threshold() float32 { return e.threshold }

// lowBits returns the width of the low-order part.
func (e *Exec) lowBits() int { return e.bits - e.predBits }

// weightCodes bundles a layer's cached high/low weight-code split with the
// bit-planar forms the sparse kernels consume (one row per output
// channel, InC·K·K lanes in the (kh, kw, c) order of
// tensor.PackConvRows). The bitplanes are skipped on the dense reference
// path, which reads the row-major int32 codes directly. hi and lo are the
// two halves of hiLo, the stacked row-major [hi; lo] code matrix
// (2·OutC rows): the A operand that gives the high-density executor
// branch LH and LL from one int-GEMM.
type weightCodes struct {
	hi, lo     *tensor.IntTensor
	hiLo       []int32
	hiBP, loBP *tensor.Bitplanes
}

func (e *Exec) buildWeightCodes(layer *nn.Conv2D) *weightCodes {
	q := quant.WeightCodes(layer.EffectiveWeight(), e.bits)
	n := len(q.Data)
	hiLo := make([]int32, 2*n)
	hi, lo := quant.SplitCodesRoundedInto(hiLo[:n:n], hiLo[n:], q, e.lowBits(), true)
	wc := &weightCodes{hi: hi, lo: lo, hiLo: hiLo}
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

// weights returns the weight codes for a layer, from the cache unless
// WithoutWeightCache is set.
func (e *Exec) weights(layer *nn.Conv2D) *weightCodes {
	if e.noWeightCache {
		return e.buildWeightCodes(layer)
	}
	wc, hit := e.wcache.Get(layer, e.buildWeightCodes)
	if hit {
		mODQCacheHits.Inc()
	} else {
		mODQCacheMisses.Inc()
	}
	return wc
}

// InvalidateCache drops cached weight codes. The retraining contract:
// call it after every weight mutation BEFORE issuing new Conv calls
// (see quant.WeightCache).
func (e *Exec) InvalidateCache() {
	mODQInvalidations.Inc()
	e.wcache.Invalidate()
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
	out, _ := e.convQ(actInput{shape: x.Shape, x: x}, layer, nil)
	return out
}

// actInput is a conv's input: float activations to quantize, or packed
// INT4 codes to unpack. Either way each sample's codes come out on their
// own, so every sample's task runs its own front end.
type actInput struct {
	shape []int            // [N, C, H, W]
	x     *tensor.Tensor   // float activations, or nil
	px    *tensor.PackedI4 // packed codes when x is nil
}

// sampleCodes writes sample s's C·H·W activation codes into dst.
func (in actInput) sampleCodes(dst []int32, s, bits int) {
	per := len(dst)
	if in.x != nil {
		quant.FillActCodes(dst, in.x.Data[s*per:(s+1)*per], bits)
		return
	}
	in.px.UnpackIntInto(dst, s*per)
}

// convQ is the shared conv body. With a nil epilogue it returns the raw
// float partial-sum tensor (bias is NOT applied — nn.Conv2D.Forward adds
// it, as before). With an epilogue it returns packed INT4 codes of the
// requantized activation instead, and no float tensor is materialized on
// the default path. The codes, their splits and the mask live in pooled
// scratch.
func (e *Exec) convQ(in actInput, layer *nn.Conv2D, epi *Epilogue) (*tensor.Tensor, *tensor.PackedI4) {
	spConv := telemetry.StartSpan("odq.conv")
	defer spConv.End()
	mODQConvs.Inc()
	if in.shape[1] != layer.InC {
		panic(fmt.Sprintf("core: %s expects %d input channels, got %d", layer.Name, layer.InC, in.shape[1]))
	}
	n := in.shape[0]
	wc := e.weights(layer)
	wh, wl := wc.hi, wc.lo

	g := layer.Geom(in.shape[2], in.shape[3])
	perSample := g.TotalOutputs()
	total := n * perSample
	// Activation codes sit on the unsigned grid of step 1/(2^bits − 1);
	// the high part's step absorbs the 2^lowBits shift, as in
	// quant.SplitCodesRoundedInto.
	xlScale := 1 / float32(quant.ActLevels(e.bits))
	xhScale := xlScale * float32(int32(1)<<uint(e.lowBits()))
	predScale := xhScale * wh.Scale
	th := e.threshold
	if v, ok := e.layerThresholds[layer.Name]; ok {
		th = v
	}
	sHL := xhScale * wl.Scale
	sLH := xlScale * wh.Scale
	sLL := xlScale * wl.Scale

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
		// Reference two-stage path: batch-wide codes and splits, batched
		// int-GEMM predictor, then dense result generation, then
		// (optionally) the epilogue as a post-pass over the float tensor.
		xh, xl := e.batchSplit(in, g)
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
		tensor.PutInt32(xh.Data)
		tensor.PutInt32(xl.Data)
		spExec.End()
		if ev != nil {
			cols := g.ColCols()
			for i := range out.Data {
				codes[i] = ev.code(out.Data[i], (i/cols)%g.OutC)
			}
		}
	} else {
		sensitive = e.resultBitplane(out, codes, ev, mask, in, wc, g, predScale, th, sHL, sLH, sLL)
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

	var packed *tensor.PackedI4
	if epi != nil {
		packed = tensor.NewPackedI4(n, g.OutC, g.OutH, g.OutW)
		tensor.PackI4Into(codes[:total], packed.Data)
		tensor.PutUint8(codes)
	}
	return out, packed
}

// batchSplit is the dense reference's batch-wide front end: the whole
// batch's codes split into high and low tensors over pooled scratch (the
// high part overwrites the codes in place).
func (e *Exec) batchSplit(in actInput, g tensor.ConvGeom) (xh, xl *tensor.IntTensor) {
	n, per := in.shape[0], g.InC*g.InH*g.InW
	qx := &tensor.IntTensor{Shape: in.shape, Data: tensor.GetInt32(n * per),
		Scale: 1 / float32(quant.ActLevels(e.bits)), Bits: e.bits}
	for s := 0; s < n; s++ {
		in.sampleCodes(qx.Data[s*per:(s+1)*per], s, e.bits)
	}
	return quant.SplitCodesRoundedInto(qx.Data, tensor.GetInt32(n*per), qx, e.lowBits(), false)
}

// exactSumLimit bounds Σ|a| for cutMask's integer cut. Below it,
// |a|·predScale needs at most 29 + 24 significant bits, so every partial
// sum the float64 mean loop forms is exact.
const exactSumLimit = 1 << 29

// maskSample thresholds one sample's predictor accumulators into its
// sensitivity mask. The threshold is relative to the sample's mean
// |predictor output| in the layer (the paper derives its threshold from
// per-layer output distributions, §3); this keeps one network-wide
// threshold value meaningful across layers whose raw output scales
// differ. Normalizing per sample (not per batch) makes every sample's
// mask — and therefore its output — independent of whatever it happens to
// be batched with, so a dynamically batched serving pass is bit-identical
// to running each request alone.
//
// The cut is defined in float (|float32(a)·predScale| ≥ float32(mean)·th)
// and decided in integers. While Σ|a| < exactSumLimit the float64 mean
// equals float64(Σ|a|)·|predScale| exactly, and float32(m)·|predScale| is
// non-decreasing in the integer magnitude m, so the mask is |a| ≥ lim for
// the least such m that meets the cut, found by bisection. Larger sums
// and a non-finite predScale take the float loop.
func (e *Exec) maskSample(seg []int64, mseg []bool, predScale, th float32) {
	meanAbs := cutMask(seg, mseg, predScale, th)
	if e.collectDist {
		e.sampleDist(seg, predScale, float32(meanAbs))
	}
}

// cutMask writes maskSample's mask for seg into mseg and returns the
// sample's mean |predictor output|.
func cutMask(seg []int64, mseg []bool, predScale, th float32) float64 {
	mseg = mseg[:len(seg)]
	if meanAbs, lim, ok := intCut(seg, predScale, th); ok {
		for i, a := range seg {
			if a < 0 {
				a = -a
			}
			mseg[i] = a >= lim
		}
		return meanAbs
	}
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
	return meanAbs
}

// intCut returns cutMask's mean |predictor output| and the least
// magnitude lim with float32(lim)·|predScale| ≥ cut (exactSumLimit when
// none below it qualifies, which a NaN cut never does), or ok = false
// when Σ|a| ≥ exactSumLimit or predScale is not finite.
func intCut(seg []int64, predScale, th float32) (meanAbs float64, lim int64, ok bool) {
	ps := math.Abs(float64(predScale))
	if math.IsNaN(ps) || math.IsInf(ps, 0) {
		return 0, 0, false
	}
	var sum uint64
	for _, a := range seg {
		m := uint64(a)
		if a < 0 {
			m = -m
		}
		// Saturating each term keeps the sum from wrapping.
		sum += min(m, exactSumLimit)
	}
	if sum >= exactSumLimit {
		return 0, 0, false
	}
	meanAbs = float64(sum) * ps
	if len(seg) > 0 {
		meanAbs /= float64(len(seg))
	}
	cut := float32(meanAbs) * th
	abs := float32(ps)
	lo, hi := int64(0), int64(exactSumLimit)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float32(mid)*abs >= cut {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return meanAbs, lo, true
}

// bitplaneGEMMCutover is the realized-density point where the executor
// switches from per-output bitplane dot products to batched int-GEMM
// partials. Below it, skipping insensitive outputs wins; above it, the
// blocked (AVX2 where available) GEMM's throughput beats per-output
// scatter even though it computes everything. Both branches are exact
// integer arithmetic into the same fuse(), so the switch is invisible in
// the output — it only moves work.
const bitplaneGEMMCutover = 0.45

// resultBitplane is the sparse execution path: per sample, the task
// quantizes (or unpacks) and splits its own activations, the high codes
// are bitplane-packed straight from the [C,H,W] codes
// (tensor.PackConvRows: one bitstream per input row and plane, rows
// built from K bit-fields; no im2col matrix is ever materialized), the
// sensitivity predictor runs as AND+POPCNT row products
// (tensor.BitplaneMulRow), and the executor computes the three remaining
// partials only as directed by the realized mask — fused per-output
// bitplane dots (tensor.BitplaneDot3) at low density, wide int-GEMM
// partials above bitplaneGEMMCutover: HL = lo·im2col(xh) and the stacked
// [LH; LL] = [hi; lo]·im2col(xl), two implicit GEMMs (tensor.ConvGemmInt)
// that pack their panels straight from the codes. Exact integer
// arithmetic end to end keeps it bit-identical to the dense reference;
// the shared fuse() keeps the float combination identical. Writes requantized codes directly
// when ev is non-nil (fused epilogue), float partial sums into out
// otherwise. Returns the sensitive count.
//
// A batch with at least as many samples as the shared pool has workers
// runs one pool task per sample, each with its own scratch and serial
// per-outC loops; smaller batches run their samples in turn and fan each
// one out over output channels. Either way e.workers caps the fan-out,
// and every output is written by exactly one task.
func (e *Exec) resultBitplane(out *tensor.Tensor, codes []uint8, ev *epiEval, mask []bool,
	in actInput, wc *weightCodes, g tensor.ConvGeom,
	predScale, th, sHL, sLH, sLL float32) int64 {
	n := in.shape[0]
	lowBits := e.lowBits()
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
		xh, xl := tensor.GetInt32(per), tensor.GetInt32(per)
		in.sampleCodes(xh, s, e.bits)
		quant.SplitRoundedCodes(xh, xl, xh, e.bits, lowBits, false)
		predAcc := tensor.GetInt64(perSample)
		xhBP := &tensor.Bitplanes{R: cols, L: rows, P: e.predBits, W: tensor.BitplaneWords(rows),
			Data: tensor.GetUint64(tensor.BitplaneSize(cols, rows, e.predBits))}
		tensor.PackConvRows(xh, g, xhBP)
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
			lhll := tensor.GetInt64(2 * perSample)
			tensor.ConvGemmInt(wc.lo.Data, xh, g, hlAcc, outC)
			tensor.ConvGemmInt(wc.hiLo, xl, g, lhll, 2*outC)
			lhAcc, llAcc := lhll[:perSample], lhll[perSample:]
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
			tensor.PutInt64(hlAcc)
			tensor.PutInt64(lhll)
		} else {
			xlBP := &tensor.Bitplanes{R: cols, L: rows, P: lowBits + 1, W: tensor.BitplaneWords(rows), Signed: true,
				Data: tensor.GetUint64(tensor.BitplaneSize(cols, rows, lowBits+1))}
			tensor.PackConvRows(xl, g, xlBP)
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
		tensor.PutInt32(xh)
		tensor.PutInt32(xl)
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

var _ nn.ConvExecutor = (*Exec)(nil)
