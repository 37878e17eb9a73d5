package experiments

import (
	"io"

	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/stats"
)

// odqMaskProfiles returns (cached) ODQ profiles with per-output masks for
// a model, feeding the cycle-level PE simulations.
func odqMaskProfiles(l *Lab, modelName string) []*quant.LayerProfile {
	key := "odqmasks/" + modelName
	v := l.Memo(key, func() interface{} {
		tm := l.Model(modelName, "c10")
		th := l.Threshold(tm)
		profiles, _ := l.ProfileODQ(tm, th, true)
		return profiles
	})
	return v.([]*quant.LayerProfile)
}

// Figure11Result reports per-layer predictor/executor idle fractions for
// two static PE allocations with the static (round-robin) workload
// scheduler — the inefficiency Figure 11 demonstrates.
type Figure11Result struct {
	Model   string
	Configs []sim.AllocConfig
	Layers  []string
	// PreIdle[cfg][layer], ExeIdle[cfg][layer].
	PreIdle [][]float64
	ExeIdle [][]float64
}

// Figure11 reproduces Figure 11 on ResNet-20 masks: (a) 15P/12E and
// (b) 18P/9E, both statically allocated and statically scheduled.
func Figure11(l *Lab) *Figure11Result {
	profiles := odqMaskProfiles(l, "resnet20")
	r := &Figure11Result{
		Model:   "resnet20",
		Configs: []sim.AllocConfig{{Predictor: 15, Executor: 12}, {Predictor: 18, Executor: 9}},
	}
	r.PreIdle = make([][]float64, len(r.Configs))
	r.ExeIdle = make([][]float64, len(r.Configs))
	for i, p := range profiles {
		r.Layers = append(r.Layers, layerLabel(i))
		w := sim.LayerWorkFromProfile(p)
		for ci, cfg := range r.Configs {
			res := sim.SimulateLayer(w, sim.DefaultSliceConfig(cfg, false))
			r.PreIdle[ci] = append(r.PreIdle[ci], res.PredIdleFrac())
			r.ExeIdle[ci] = append(r.ExeIdle[ci], res.ExecIdleFrac())
		}
	}
	return r
}

// Render implements the experiment output.
func (r *Figure11Result) Render(w io.Writer) {
	t := stats.NewTable("Figure 11: % idle PEs under STATIC allocation (ResNet-20)",
		"layer",
		"pre_idle "+r.Configs[0].String(), "exe_idle "+r.Configs[0].String(),
		"pre_idle "+r.Configs[1].String(), "exe_idle "+r.Configs[1].String())
	for i, l := range r.Layers {
		t.AddRow(l,
			stats.Pct(r.PreIdle[0][i]), stats.Pct(r.ExeIdle[0][i]),
			stats.Pct(r.PreIdle[1][i]), stats.Pct(r.ExeIdle[1][i]))
	}
	t.Render(w)
}

// Table1Row pairs an allocation with its analytic bubble-free bound and
// the bound observed in the cycle simulation.
type Table1Row struct {
	Config       sim.AllocConfig
	AnalyticMax  float64
	SimulatedMax float64
}

// Table1Result reproduces Table 1 and cross-checks it against the cycle
// simulator.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 computes the analytic maxima and validates each with a bisection
// over the simulated sensitive fraction (bubble-free = predictor idle
// only in the tail).
func Table1(l *Lab) *Table1Result {
	r := &Table1Result{}
	for _, cfg := range sim.Table1Configs() {
		row := Table1Row{Config: cfg, AnalyticMax: cfg.MaxSensitiveFraction()}
		row.SimulatedMax = simulatedMaxSensitive(cfg)
		r.Rows = append(r.Rows, row)
	}
	return r
}

// simulatedMaxSensitive bisects for the largest uniform sensitive
// fraction whose predictor idle stays at tail-only levels.
func simulatedMaxSensitive(cfg sim.AllocConfig) float64 {
	const (
		ofms     = 400
		perOFM   = 64
		tailIdle = 0.05
	)
	bubbleFree := func(s float64) bool {
		w := sim.LayerWork{OutputsPerOFM: perOFM, SensPerOFM: make([]int, ofms)}
		for i := range w.SensPerOFM {
			w.SensPerOFM[i] = int(s * float64(perOFM))
		}
		// Table 1 is a steady-state *rate* condition; give the buffer
		// room to absorb the synchronized per-wave OFM bursts so we
		// measure throughput, not transient buffering.
		sc := sim.SliceConfig{Alloc: cfg, DynamicWorkload: true, BufferOFMs: 21 + 3*cfg.Predictor}
		res := sim.SimulateLayer(w, sc)
		return res.PredIdleFrac() <= tailIdle
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if bubbleFree(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Render implements the experiment output.
func (r *Table1Result) Render(w io.Writer) {
	t := stats.NewTable("Table 1: PE-array allocation vs max sensitive fraction without pipeline bubbles",
		"predictor arrays", "executor arrays", "analytic max", "simulated max")
	for _, row := range r.Rows {
		t.AddRow(row.Config.Predictor, row.Config.Executor,
			stats.Pct(row.AnalyticMax), stats.Pct(row.SimulatedMax))
	}
	t.Render(w)
}

// Table2Result renders the accelerator configurations under comparison.
type Table2Result struct {
	Accels []*sim.Accel
}

// Table2 reports the Table-2 configurations.
func Table2(_ *Lab) *Table2Result {
	m := sim.Table2Accels()
	return &Table2Result{Accels: []*sim.Accel{m["INT16"], m["INT8"], m["DRQ"], m["ODQ"]}}
}

// Render implements the experiment output.
func (r *Table2Result) Render(w io.Writer) {
	t := stats.NewTable("Table 2: accelerator configurations (equal area / on-chip memory)",
		"accelerator", "#PEs", "on-chip memory (MB)")
	for _, a := range r.Accels {
		t.AddRow(a.Name, a.PEs, float64(a.Mem.GlobalBufferBytes)/(1024*1024))
	}
	t.Render(w)
}

// Figure20Result reports per-layer idle fractions under the full ODQ
// scheme: per-layer Table-1 reconfiguration plus dynamic workload
// scheduling.
type Figure20Result struct {
	Model   string
	Layers  []string
	Idle    []float64
	Allocs  []sim.AllocConfig
	MaxIdle float64
}

// Figure20 reproduces Figure 20 on ResNet-20 masks.
func Figure20(l *Lab) *Figure20Result {
	profiles := odqMaskProfiles(l, "resnet20")
	r := &Figure20Result{Model: "resnet20"}
	for i, p := range profiles {
		w := sim.LayerWorkFromProfile(p)
		res, alloc := sim.SimulateLayerAuto(w)
		idle := res.IdleFrac()
		r.Layers = append(r.Layers, layerLabel(i))
		r.Idle = append(r.Idle, idle)
		r.Allocs = append(r.Allocs, alloc)
		if idle > r.MaxIdle {
			r.MaxIdle = idle
		}
	}
	return r
}

// Render implements the experiment output.
func (r *Figure20Result) Render(w io.Writer) {
	t := stats.NewTable("Figure 20: % idle PEs with ODQ dynamic allocation (ResNet-20)",
		"layer", "allocation", "idle", "")
	for i, l := range r.Layers {
		t.AddRow(l, r.Allocs[i].String(), stats.Pct(r.Idle[i]), stats.Bar(r.Idle[i], 30))
	}
	t.Render(w)
}
