package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/drq"
	"repro/internal/energy"
	"repro/internal/infer"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/stats"
)

// figure18Schemes maps Figure 18's display labels to canonical scheme
// names in package infer's registry, in render order. Construction goes
// through infer.NewFromScheme so the experiment can never drift from the
// CLI scheme set.
var figure18Schemes = []struct {
	Label  string
	Scheme string
}{
	{"FP32", "float"},
	{"INT16", "int16"},
	{"INT8", "int8"},
	{"DRQ 8/4", "drq84"},
	{"DRQ 4/2", "drq42"},
	{"ODQ 4/2", "odq"},
}

// schemeNames lists Figure 18's display labels in render order.
var schemeNames = func() []string {
	out := make([]string, len(figure18Schemes))
	for i, s := range figure18Schemes {
		out[i] = s.Label
	}
	return out
}()

// Figure18Row is one (model, dataset, scheme) accuracy cell.
type Figure18Row struct {
	Model, Dataset, Scheme string
	Accuracy               float64
	// HighFrac is the share of computation at the scheme's high
	// precision (sensitive outputs for ODQ, high-precision MACs for
	// DRQ, 1.0 for static schemes).
	HighFrac float64
}

// Figure18Result reproduces Figure 18: Top-1 accuracy plus the
// high/low-precision split for every scheme, model and dataset.
type Figure18Result struct {
	Rows []Figure18Row
}

// Figure18 evaluates all schemes on the given models and datasets.
// Passing nil uses the paper's four models and both datasets.
func Figure18(l *Lab, modelNames, datasets []string) *Figure18Result {
	if modelNames == nil {
		modelNames = []string{"resnet56", "resnet20", "vgg16", "densenet"}
	}
	if datasets == nil {
		datasets = []string{"c10", "c100"}
	}
	r := &Figure18Result{}
	for _, ds := range datasets {
		for _, m := range modelNames {
			tm := l.Model(m, ds)
			th := l.Threshold(tm)
			for _, sc := range figure18Schemes {
				row := Figure18Row{Model: m, Dataset: ds, Scheme: sc.Label, HighFrac: 1}
				if sc.Scheme == "float" {
					row.Accuracy = tm.FP32Acc
					r.Rows = append(r.Rows, row)
					continue
				}
				exec, err := infer.NewFromScheme(sc.Scheme, infer.WithThreshold(th), infer.WithProfiling())
				if err != nil {
					panic(err) // figure18Schemes holds only registry names
				}
				// Eval mode and high-precision share are per-family
				// reporting concerns: DRQ evaluates on base weights, ODQ
				// on the threshold-retrained weights.
				switch e := exec.(type) {
				case *drq.Exec:
					row.Accuracy = l.EvalDynamicBase(tm, e)
					row.HighFrac = highMACFrac(e.Profiles())
				case *core.Exec:
					row.Accuracy = l.EvalDynamic(tm, e)
					row.HighFrac = e.SensitiveFraction()
				default:
					row.Accuracy = l.EvalWithExec(tm, exec)
				}
				r.Rows = append(r.Rows, row)
			}
		}
	}
	return r
}

func highMACFrac(profiles []*quant.LayerProfile) float64 {
	var hi, tot int64
	for _, p := range profiles {
		hi += p.HighInputMACs
		tot += p.TotalMACs
	}
	if tot == 0 {
		return 0
	}
	return float64(hi) / float64(tot)
}

// Render implements the experiment output.
func (r *Figure18Result) Render(w io.Writer) {
	t := stats.NewTable("Figure 18: Top-1 accuracy and high-precision share per scheme",
		"dataset", "model", "scheme", "accuracy", "high-prec share")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Model, row.Scheme,
			stats.Pct(row.Accuracy), stats.Pct(row.HighFrac))
	}
	t.Render(w)
}

// AccuracyDrop returns ODQ's accuracy drop versus INT8 for a model/dataset
// (the paper's ≤0.6% claim).
func (r *Figure18Result) AccuracyDrop(model, dataset string) float64 {
	var int8Acc, odqAcc float64
	for _, row := range r.Rows {
		if row.Model != model || row.Dataset != dataset {
			continue
		}
		switch row.Scheme {
		case "INT8":
			int8Acc = row.Accuracy
		case "ODQ 4/2":
			odqAcc = row.Accuracy
		}
	}
	return int8Acc - odqAcc
}

// modelCosts bundles the per-accelerator cost models for one network.
type modelCosts struct {
	Costs    map[string]*sim.NetworkCost
	ODQUtil  float64
	SensFrac float64
}

// costsFor builds (and caches) the Figure 19/21 cost models for a network:
// profiles from each scheme's executor feed the Table-2 accelerator
// models, with ODQ's utilization taken from the cycle simulation.
func costsFor(l *Lab, modelName string) *modelCosts {
	key := "costs/" + modelName
	v := l.Memo(key, func() interface{} {
		tm := l.Model(modelName, "c10")
		th := l.Threshold(tm)

		staticProfiles := l.ProfileStatic(tm, 8)
		drqProfiles, _ := l.ProfileDRQ(tm, 8, 4, false, 0)
		odqProfiles := odqMaskProfiles(l, modelName)
		_ = th

		accels := sim.Table2Accels()

		// ODQ utilization from the cycle-level slice simulation,
		// weighted by per-layer PE work.
		util := sim.ODQUtilization(odqProfiles)
		accels["ODQ"].Utilization = util

		mc := &modelCosts{Costs: map[string]*sim.NetworkCost{}, ODQUtil: util}
		mc.Costs["INT16"] = accels["INT16"].NetworkCostOf(staticProfiles)
		mc.Costs["INT8"] = accels["INT8"].NetworkCostOf(staticProfiles)
		mc.Costs["DRQ"] = accels["DRQ"].NetworkCostOf(drqProfiles)
		mc.Costs["ODQ"] = accels["ODQ"].NetworkCostOf(odqProfiles)

		var sens, tot int64
		for _, p := range odqProfiles {
			sens += p.SensitiveOutputs
			tot += p.TotalOutputs
		}
		if tot > 0 {
			mc.SensFrac = float64(sens) / float64(tot)
		}
		return mc
	})
	return v.(*modelCosts)
}

// AccelOrder is the Figure 19/21 accelerator rendering order.
var AccelOrder = []string{"INT16", "INT8", "DRQ", "ODQ"}

// Figure19Result reproduces Figure 19: normalized execution time of every
// model on the four accelerators (INT16 = 1.0).
type Figure19Result struct {
	Models []string
	// Normalized[model][accel] in AccelOrder.
	Normalized [][]float64
	Cycles     [][]int64
	ODQUtil    []float64
}

// Figure19 models execution time for the given models (nil = all four).
func Figure19(l *Lab, modelNames []string) *Figure19Result {
	if modelNames == nil {
		modelNames = []string{"resnet56", "resnet20", "vgg16", "densenet"}
	}
	r := &Figure19Result{Models: modelNames}
	for _, m := range modelNames {
		mc := costsFor(l, m)
		base := float64(mc.Costs["INT16"].TotalCycles())
		var norm []float64
		var cyc []int64
		for _, a := range AccelOrder {
			c := mc.Costs[a].TotalCycles()
			cyc = append(cyc, c)
			norm = append(norm, float64(c)/base)
		}
		r.Normalized = append(r.Normalized, norm)
		r.Cycles = append(r.Cycles, cyc)
		r.ODQUtil = append(r.ODQUtil, mc.ODQUtil)
	}
	return r
}

// Speedup returns ODQ's relative execution-time reduction versus the
// named accelerator, averaged across models (the paper's 97.8% / 95.8% /
// 67.6% headline numbers).
func (r *Figure19Result) Speedup(vs string) float64 {
	vi := indexOf(AccelOrder, vs)
	oi := indexOf(AccelOrder, "ODQ")
	var fracs []float64
	for _, row := range r.Cycles {
		if row[vi] > 0 {
			fracs = append(fracs, 1-float64(row[oi])/float64(row[vi]))
		}
	}
	return stats.Mean(fracs)
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	panic(fmt.Sprintf("experiments: unknown accelerator %q", s))
}

// Render implements the experiment output.
func (r *Figure19Result) Render(w io.Writer) {
	t := stats.NewTable("Figure 19: normalized execution time (INT16 = 1.0)",
		"model", "INT16", "INT8", "DRQ", "ODQ", "ODQ util")
	for i, m := range r.Models {
		n := r.Normalized[i]
		t.AddRow(m, n[0], n[1], n[2], n[3], stats.Pct(r.ODQUtil[i]))
	}
	t.Render(w)
	fmt.Fprintf(w, "ODQ execution-time reduction: vs INT16 %s, vs INT8 %s, vs DRQ %s\n\n",
		stats.Pct(r.Speedup("INT16")), stats.Pct(r.Speedup("INT8")), stats.Pct(r.Speedup("DRQ")))
}

// Figure21Result reproduces Figure 21: normalized energy with the
// DRAM/Buffer/Cores breakdown.
type Figure21Result struct {
	Models []string
	// Energy[model][accel] in AccelOrder.
	Energy     [][]energy.Breakdown
	Normalized [][]float64
}

// Figure21 models energy for the given models (nil = all four).
func Figure21(l *Lab, modelNames []string) *Figure21Result {
	if modelNames == nil {
		modelNames = []string{"resnet56", "resnet20", "vgg16", "densenet"}
	}
	consts := energy.DefaultConstants()
	accels := sim.Table2Accels()
	r := &Figure21Result{Models: modelNames}
	for _, m := range modelNames {
		mc := costsFor(l, m)
		var bds []energy.Breakdown
		var norm []float64
		var base float64
		for i, a := range AccelOrder {
			bd := energy.NetworkEnergy(accels[a], mc.Costs[a], consts)
			bds = append(bds, bd)
			if i == 0 {
				base = bd.Total()
			}
			norm = append(norm, bd.Total()/base)
		}
		r.Energy = append(r.Energy, bds)
		r.Normalized = append(r.Normalized, norm)
	}
	return r
}

// Saving returns ODQ's mean energy reduction versus the named accelerator.
func (r *Figure21Result) Saving(vs string) float64 {
	vi := indexOf(AccelOrder, vs)
	oi := indexOf(AccelOrder, "ODQ")
	var fracs []float64
	for _, row := range r.Energy {
		if row[vi].Total() > 0 {
			fracs = append(fracs, 1-row[oi].Total()/row[vi].Total())
		}
	}
	return stats.Mean(fracs)
}

// Render implements the experiment output.
func (r *Figure21Result) Render(w io.Writer) {
	t := stats.NewTable("Figure 21: normalized energy (INT16 = 1.0) with DRAM/Buffer/Cores split",
		"model", "accel", "normalized", "dram", "buffer", "cores")
	for i, m := range r.Models {
		for j, a := range AccelOrder {
			bd := r.Energy[i][j]
			tot := bd.Total()
			t.AddRow(m, a, r.Normalized[i][j],
				stats.Pct(bd.DRAM/tot), stats.Pct(bd.Buffer/tot), stats.Pct(bd.Cores/tot))
		}
	}
	t.Render(w)
	fmt.Fprintf(w, "ODQ energy reduction: vs INT16 %s, vs INT8 %s, vs DRQ %s\n\n",
		stats.Pct(r.Saving("INT16")), stats.Pct(r.Saving("INT8")), stats.Pct(r.Saving("DRQ")))
}
