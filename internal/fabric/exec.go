package fabric

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Exec adapts the functional datapath model to nn.ConvExecutor, so an
// entire network can be run *through the modeled hardware*, sample by
// sample, layer by layer — the strongest end-to-end check that the
// accelerator model computes what the arithmetic definition of ODQ says.
// It is orders of magnitude slower than core.Exec; use it for validation
// and demos, not evaluation sweeps.
type Exec struct {
	// Bits is the code width (4).
	Bits int
	// Cfg is the slice configuration (threshold included).
	Cfg Config

	mu       sync.Mutex
	cacheGen uint64
	wcache   map[*nn.Conv2D]*tensor.IntTensor
	// Totals accumulated across layers and samples.
	TotalCycles     int64
	TotalDRAMBytes  int64
	TotalSensitive  int64
	TotalOutputs    int64
	PredIdle        int64
	ExecIdle        int64
	TotalArrayCycle int64
}

// Option configures a fabric Exec at construction time — the same
// functional-options construction idiom as the other executors
// (core.NewExec, quant.NewStaticExec, quant.NewPerChannelExec,
// drq.NewExec).
type Option func(*Exec)

// WithConfig sets the slice configuration (threshold included). Without
// it, New uses DefaultConfig(0): the paper's running-example slice with
// every output sensitive.
func WithConfig(cfg Config) Option {
	return func(e *Exec) { e.Cfg = cfg }
}

// WithThreshold overrides only the sensitivity threshold of the current
// configuration.
func WithThreshold(threshold float32) Option {
	return func(e *Exec) { e.Cfg.Threshold = threshold }
}

// WithBits sets the code width (default 4, the paper's).
func WithBits(bits int) Option {
	return func(e *Exec) { e.Bits = bits }
}

// New builds a fabric-backed executor with the paper's running-example
// slice configuration, modified by the given options.
func New(opts ...Option) *Exec {
	e := &Exec{Bits: 4, Cfg: DefaultConfig(0), wcache: make(map[*nn.Conv2D]*tensor.IntTensor)}
	for _, o := range opts {
		o(e)
	}
	return e
}

// weights returns cached integer weight codes for a layer. Quantization
// runs outside the lock; the result is stored only if no InvalidateCache
// intervened (generation check), so an in-flight Conv can never
// re-populate the cache from stale weights.
func (e *Exec) weights(layer *nn.Conv2D) *tensor.IntTensor {
	e.mu.Lock()
	if q, ok := e.wcache[layer]; ok {
		e.mu.Unlock()
		return q
	}
	gen := e.cacheGen
	e.mu.Unlock()

	q := quant.WeightCodes(layer.EffectiveWeight(), e.Bits)

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

// InvalidateCache drops cached weight codes (call after weight mutation,
// before new Conv calls — the executor-family contract).
func (e *Exec) InvalidateCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cacheGen++
	e.wcache = make(map[*nn.Conv2D]*tensor.IntTensor)
}

// Conv implements nn.ConvExecutor by pushing each sample through RunConv.
func (e *Exec) Conv(x *tensor.Tensor, layer *nn.Conv2D) *tensor.Tensor {
	n := x.Shape[0]
	qw := e.weights(layer)
	g := layer.Geom(x.Shape[2], x.Shape[3])
	out := tensor.New(n, g.OutC, g.OutH, g.OutW)
	outPer := g.OutC * g.OutH * g.OutW
	for s := 0; s < n; s++ {
		sample := x.Slice4Batch(s)
		qx := quant.ActCodes(sample, e.Bits)
		res, err := RunConv(qx, qw, layer.Stride, layer.Pad, e.Cfg)
		if err != nil {
			panic("fabric: " + err.Error())
		}
		copy(out.Data[s*outPer:(s+1)*outPer], res.Output.Data)

		e.mu.Lock()
		e.TotalCycles += res.Cycles
		e.TotalDRAMBytes += res.DRAMBytes
		e.TotalSensitive += int64(res.Sensitive)
		e.TotalOutputs += int64(len(res.Mask))
		e.PredIdle += res.PredIdle
		e.ExecIdle += res.ExecIdle
		e.TotalArrayCycle += res.Cycles * int64(e.Cfg.PredictorArrays+e.Cfg.ExecutorArrays)
		e.mu.Unlock()
	}
	return out
}

// IdleFraction returns the accumulated whole-run idle fraction.
func (e *Exec) IdleFraction() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.TotalArrayCycle == 0 {
		return 0
	}
	return float64(e.PredIdle+e.ExecIdle) / float64(e.TotalArrayCycle)
}

// SensitiveFraction returns the accumulated sensitive-output fraction.
func (e *Exec) SensitiveFraction() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.TotalOutputs == 0 {
		return 0
	}
	return float64(e.TotalSensitive) / float64(e.TotalOutputs)
}

var _ nn.ConvExecutor = (*Exec)(nil)
