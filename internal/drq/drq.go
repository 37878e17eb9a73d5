// Package drq implements the DRQ baseline (Song et al., ISCA 2020):
// input-directed, region-based dynamic quantization. The input feature map
// of every convolution is partitioned into square spatial regions; regions
// whose mean magnitude exceeds a threshold are "sensitive" and are computed
// with high-precision inputs and weights, the rest with low-precision ones.
//
// Besides serving as the paper's main comparison point, this package
// carries the instrumentation behind the motivation study (Figures 2–5):
// how many low-precision inputs feed each *sensitive output*, how many
// high-precision inputs feed each *insensitive output*, the resulting
// precision loss, and the wasted extra precision (Eq. 1).
package drq

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// mDRQConvs counts executor Conv calls; per-layer output/MAC counters are
// published by the shared Profiler.Record telemetry hook.
var mDRQConvs = telemetry.GetCounter("drq.convs")

// regionEdge is the spatial region edge in pixels.
const regionEdge = 4

// Exec is the DRQ convolution executor. Configuration is fixed at
// construction time through Option values.
type Exec struct {
	// highBits/lowBits are the two precisions (the paper evaluates
	// 8/4 and 4/2).
	highBits, lowBits int
	// thresholdScale multiplies the layer's mean input magnitude to form
	// the region-sensitivity threshold; 1.0 marks above-average regions
	// as sensitive.
	thresholdScale float32
	// outputThreshold classifies *outputs* as sensitive for the
	// motivation statistics (the same magnitude criterion ODQ uses).
	outputThreshold float32
	// collectMotivation enables the Figure 2–5 statistics, at the cost
	// of extra reference convolutions.
	collectMotivation bool

	quant.Profiler

	wcache quant.WeightCache[drqWeights]

	mu         sync.Mutex // guards the motivation statistics
	motivation map[string]*MotivationStat
	motOrder   []string
}

// drqWeights is one layer's cached weight codes at both precisions.
type drqWeights struct {
	hi, lo *tensor.IntTensor
}

// Option configures a DRQ Exec at construction time.
type Option func(*Exec)

// WithThresholdScale sets the region-sensitivity threshold as a multiple
// of the layer's mean input magnitude (default 1.0).
func WithThresholdScale(s float32) Option {
	return func(e *Exec) { e.thresholdScale = s }
}

// WithProfiling enables per-layer profile recording.
func WithProfiling() Option {
	return func(e *Exec) { e.EnableProfiling() }
}

// WithMotivation enables the Figure 2–5 motivation statistics; outputs
// with |value| above outputThreshold count as sensitive.
func WithMotivation(outputThreshold float32) Option {
	return func(e *Exec) {
		e.collectMotivation = true
		e.outputThreshold = outputThreshold
	}
}

// MotivationStat aggregates the per-layer motivation measurements.
type MotivationStat struct {
	Name  string
	Index int

	// SensLowFracBuckets histograms sensitive outputs by the fraction of
	// low-precision input taps that produced them, in quartile buckets
	// (0–25%, 25–50%, 50–75%, 75–100%) — Figure 2.
	SensLowFracBuckets [4]int64
	SensitiveCount     int64

	// InsensHighFracBuckets histograms insensitive outputs by the
	// fraction of high-precision input taps — Figure 4.
	InsensHighFracBuckets [4]int64
	InsensitiveCount      int64

	// PrecLossSum/Count average |O_float − O_DRQ| over sensitive
	// outputs — Figure 3.
	PrecLossSum   float64
	PrecLossCount int64

	// ExtraPrecision is max |O_DRQ − O_allLowInputs| over insensitive
	// outputs — Figure 5 / Eq. 1.
	ExtraPrecision float64
}

// NewExec builds a DRQ executor with the given high/low bit widths,
// modified by the given options.
func NewExec(highBits, lowBits int, opts ...Option) *Exec {
	if highBits < 2 || highBits > 16 || lowBits < 1 || lowBits >= highBits {
		panic("drq: NewExec requires 1 <= lowBits < highBits <= 16")
	}
	e := &Exec{
		highBits:       highBits,
		lowBits:        lowBits,
		thresholdScale: 1.0,
		motivation:     make(map[string]*MotivationStat),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// MotivationStats returns the accumulated Figure 2–5 measurements in
// layer order.
func (e *Exec) MotivationStats() []*MotivationStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*MotivationStat, 0, len(e.motOrder))
	for _, name := range e.motOrder {
		out = append(out, e.motivation[name])
	}
	return out
}

// ResetMotivation clears the motivation measurements.
func (e *Exec) ResetMotivation() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.motivation = make(map[string]*MotivationStat)
	e.motOrder = nil
}

// weights returns the cached high/low weight codes for a layer.
func (e *Exec) weights(layer *nn.Conv2D) drqWeights {
	w, _ := e.wcache.Get(layer, e.buildWeights)
	return w
}

func (e *Exec) buildWeights(layer *nn.Conv2D) drqWeights {
	w := layer.EffectiveWeight()
	return drqWeights{hi: quant.WeightCodes(w, e.highBits), lo: quant.WeightCodes(w, e.lowBits)}
}

// InvalidateCache drops cached weight codes. Call after every weight
// mutation before issuing new Conv calls (see quant.WeightCache).
func (e *Exec) InvalidateCache() { e.wcache.Invalidate() }

// RegionMask classifies each spatial position of x [N,C,H,W] as sensitive
// (true) or not, by comparing its region's mean magnitude (across
// channels) against threshold. The mask is [N, H*W] flattened.
func RegionMask(x *tensor.Tensor, regionSize int, threshold float32) [][]bool {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	masks := make([][]bool, n)
	rs := regionSize
	if rs <= 0 {
		rs = 4
	}
	for s := 0; s < n; s++ {
		mask := make([]bool, h*w)
		for ry := 0; ry < h; ry += rs {
			for rx := 0; rx < w; rx += rs {
				y1, x1 := ry+rs, rx+rs
				if y1 > h {
					y1 = h
				}
				if x1 > w {
					x1 = w
				}
				var sum float64
				cnt := 0
				for ch := 0; ch < c; ch++ {
					base := (s*c + ch) * h * w
					for y := ry; y < y1; y++ {
						for xx := rx; xx < x1; xx++ {
							v := x.Data[base+y*w+xx]
							if v < 0 {
								v = -v
							}
							sum += float64(v)
							cnt++
						}
					}
				}
				sensitive := float32(sum/float64(cnt)) > threshold
				if sensitive {
					for y := ry; y < y1; y++ {
						for xx := rx; xx < x1; xx++ {
							mask[y*w+xx] = true
						}
					}
				}
			}
		}
		masks[s] = mask
	}
	return masks
}

// maskedCopy returns a copy of x with positions where mask!=keep zeroed.
func maskedCopy(x *tensor.Tensor, masks [][]bool, keep bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(x.Shape...)
	hw := h * w
	for s := 0; s < n; s++ {
		mask := masks[s]
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * hw
			for i := 0; i < hw; i++ {
				if mask[i] == keep {
					out.Data[base+i] = x.Data[base+i]
				}
			}
		}
	}
	return out
}

// countTaps runs a single-output-channel convolution of 0/1 indicators to
// count, for each output position, how many of its input taps fall in the
// indicated set. Returns counts laid out [N, OH*OW].
func countTaps(masks [][]bool, n, c, h, w, k, stride, pad int, keep bool) ([]int64, tensor.ConvGeom) {
	ind := tensor.NewInt(8, 1, n, c, h, w)
	hw := h * w
	for s := 0; s < n; s++ {
		mask := masks[s]
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * hw
			for i := 0; i < hw; i++ {
				if mask[i] == keep {
					ind.Data[base+i] = 1
				}
			}
		}
	}
	ones := tensor.NewInt(8, 1, 1, c, k, k)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return quant.ConvAccum(ind, ones, stride, pad)
}

// Conv implements nn.ConvExecutor: the mixed-precision DRQ convolution.
func (e *Exec) Conv(x *tensor.Tensor, layer *nn.Conv2D) *tensor.Tensor {
	sp := telemetry.StartSpan("drq.conv")
	defer sp.End()
	mDRQConvs.Inc()
	n := x.Shape[0]
	// The region threshold is relative to each sample's own mean input
	// magnitude (not the batch's): a sample's sensitivity map — and so
	// its output — never depends on what it was batched with, which the
	// serving layer relies on for bit-identical dynamic batching.
	masks := make([][]bool, 0, n)
	for s := 0; s < n; s++ {
		sample := x.Slice4Batch(s)
		threshold := e.thresholdScale * meanMagnitude(sample)
		masks = append(masks, RegionMask(sample, regionEdge, threshold)...)
	}

	xHi := maskedCopy(x, masks, true)
	xLo := maskedCopy(x, masks, false)
	qxHi := quant.ActCodes(xHi, e.highBits)
	qxLo := quant.ActCodes(xLo, e.lowBits)
	w := e.weights(layer)
	wHi, wLo := w.hi, w.lo

	accHi, g := quant.ConvAccum(qxHi, wHi, layer.Stride, layer.Pad)
	accLo, _ := quant.ConvAccum(qxLo, wLo, layer.Stride, layer.Pad)
	out := quant.DequantAccum(accHi, qxHi.Scale*wHi.Scale, n, g)
	lo := quant.DequantAccum(accLo, qxLo.Scale*wLo.Scale, n, g)
	out.Add(lo)

	// Cost accounting: a MAC is high-precision when its input tap lies in
	// a sensitive region.
	hiCnt, _ := countTaps(masks, n, x.Shape[1], x.Shape[2], x.Shape[3], layer.K, layer.Stride, layer.Pad, true)
	var highMACs int64
	for _, v := range hiCnt {
		highMACs += v
	}
	highMACs *= int64(g.OutC) // counts are per spatial position, same for every output channel

	e.Record(&quant.LayerProfile{
		Name:          layer.Name,
		Geom:          g,
		Batch:         n,
		TotalOutputs:  int64(n) * int64(g.TotalOutputs()),
		TotalMACs:     int64(n) * g.TotalMACs(),
		HighInputMACs: highMACs,
	})

	if e.collectMotivation {
		e.motivationStats(x, xLo, masks, out, layer, g, hiCnt)
	}
	return out
}

// motivationStats computes the Figure 2–5 statistics for one layer call.
func (e *Exec) motivationStats(x, xLo *tensor.Tensor, masks [][]bool, drqOut *tensor.Tensor,
	layer *nn.Conv2D, g tensor.ConvGeom, hiCnt []int64) {
	n := x.Shape[0]

	// Reference float convolution (no bias; executors run pre-bias).
	ref := floatConv(x, layer.EffectiveWeight(), g)

	// All-low-precision convolution for Eq. 1.
	qxAll := quant.ActCodes(x, e.lowBits)
	wLo := e.weights(layer).lo
	accAll, _ := quant.ConvAccum(qxAll, wLo, layer.Stride, layer.Pad)
	allLow := quant.DequantAccum(accAll, qxAll.Scale*wLo.Scale, n, g)

	// Valid (in-bounds) tap counts per output position.
	all := make([][]bool, n)
	for s := range all {
		m := make([]bool, x.Shape[2]*x.Shape[3])
		for i := range m {
			m[i] = true
		}
		all[s] = m
	}
	validCnt, _ := countTaps(all, n, x.Shape[1], x.Shape[2], x.Shape[3], layer.K, layer.Stride, layer.Pad, true)

	e.mu.Lock()
	defer e.mu.Unlock()
	stat, ok := e.motivation[layer.Name]
	if !ok {
		stat = &MotivationStat{Name: layer.Name, Index: len(e.motOrder)}
		e.motivation[layer.Name] = stat
		e.motOrder = append(e.motOrder, layer.Name)
	}

	cols := g.OutH * g.OutW
	for s := 0; s < n; s++ {
		for pos := 0; pos < cols; pos++ {
			valid := validCnt[s*cols+pos]
			if valid == 0 {
				continue
			}
			hi := hiCnt[s*cols+pos]
			lowFrac := 1 - float64(hi)/float64(valid)
			highFrac := float64(hi) / float64(valid)
			lb := fracBucket(lowFrac)
			hb := fracBucket(highFrac)
			for oc := 0; oc < g.OutC; oc++ {
				oi := (s*g.OutC+oc)*cols + pos
				mag := drqOut.Data[oi]
				if mag < 0 {
					mag = -mag
				}
				if mag > e.outputThreshold { // sensitive output
					stat.SensitiveCount++
					stat.SensLowFracBuckets[lb]++
					d := float64(ref.Data[oi] - drqOut.Data[oi])
					if d < 0 {
						d = -d
					}
					stat.PrecLossSum += d
					stat.PrecLossCount++
				} else {
					stat.InsensitiveCount++
					stat.InsensHighFracBuckets[hb]++
					d := float64(drqOut.Data[oi] - allLow.Data[oi])
					if d < 0 {
						d = -d
					}
					if d > stat.ExtraPrecision {
						stat.ExtraPrecision = d
					}
				}
			}
		}
	}
	_ = xLo
}

// fracBucket maps a fraction to its quartile bucket index 0..3.
func fracBucket(f float64) int {
	switch {
	case f <= 0.25:
		return 0
	case f <= 0.5:
		return 1
	case f <= 0.75:
		return 2
	default:
		return 3
	}
}

func meanMagnitude(x *tensor.Tensor) float32 {
	if x.Len() == 0 {
		return 0
	}
	var s float64
	for _, v := range x.Data {
		if v < 0 {
			v = -v
		}
		s += float64(v)
	}
	return float32(s / float64(x.Len()))
}

// floatConv is a reference float convolution used by the instrumentation.
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
