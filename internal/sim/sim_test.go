package sim

import (
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestTable1Reproduction(t *testing.T) {
	// Paper Table 1: predictor/executor → max sensitive % w/o bubbles.
	want := map[int]int{9: 66, 12: 41, 15: 26, 18: 16, 21: 9}
	cfgs := Table1Configs()
	if len(cfgs) != 5 {
		t.Fatalf("config count %d", len(cfgs))
	}
	for _, c := range cfgs {
		if c.Predictor+c.Executor != SliceArrays {
			t.Fatalf("config %v does not fill the slice", c)
		}
		got := int(c.MaxSensitiveFraction() * 100)
		if got != want[c.Predictor] {
			t.Fatalf("config %v: max sensitive %d%%, want %d%%", c, got, want[c.Predictor])
		}
	}
}

func TestChooseConfig(t *testing.T) {
	cases := []struct {
		s float64
		p int
	}{
		{0.05, 21}, {0.09, 21}, {0.12, 18}, {0.20, 15},
		{0.35, 12}, {0.50, 9}, {0.80, 9}, // beyond all bounds → most executor-heavy
	}
	for _, c := range cases {
		if got := ChooseConfig(c.s); got.Predictor != c.p {
			t.Fatalf("ChooseConfig(%v) = %v, want %dP", c.s, got, c.p)
		}
	}
}

func uniformWork(ofms, perOFM int, sensFrac float64) LayerWork {
	w := LayerWork{OutputsPerOFM: perOFM, SensPerOFM: make([]int, ofms)}
	for i := range w.SensPerOFM {
		w.SensPerOFM[i] = int(sensFrac * float64(perOFM))
	}
	return w
}

func TestSimulateLayerEmpty(t *testing.T) {
	res := SimulateLayer(LayerWork{}, DefaultSliceConfig(AllocConfig{9, 18}, true))
	if res.Cycles != 0 {
		t.Fatalf("empty layer cycles %d", res.Cycles)
	}
}

func TestSimulateLayerWorkConservation(t *testing.T) {
	w := uniformWork(30, 64, 0.25)
	res := SimulateLayer(w, DefaultSliceConfig(AllocConfig{15, 12}, true))
	if res.PredBusy != int64(w.TotalOutputs()) {
		t.Fatalf("predictor busy %d, want %d (1 cycle per output)", res.PredBusy, w.TotalOutputs())
	}
	if res.ExecBusy != int64(ExecutorCyclesPerOutput*w.TotalSensitive()) {
		t.Fatalf("executor busy %d, want %d", res.ExecBusy, 3*w.TotalSensitive())
	}
	// Busy+idle must equal arrays × cycles for each side.
	if res.PredBusy+res.PredIdle != 15*res.Cycles {
		t.Fatal("predictor cycle accounting broken")
	}
	if res.ExecBusy+res.ExecIdle != 12*res.Cycles {
		t.Fatal("executor cycle accounting broken")
	}
}

func TestSimulateLayerLowerBound(t *testing.T) {
	w := uniformWork(27, 100, 0.2)
	res := SimulateLayer(w, DefaultSliceConfig(AllocConfig{15, 12}, true))
	min := int64(w.TotalOutputs()) / 15
	if res.Cycles < min {
		t.Fatalf("cycles %d below predictor bound %d", res.Cycles, min)
	}
}

func TestNoBubblesBelowTable1Bound(t *testing.T) {
	// At a sensitive fraction safely below the bound the predictor must
	// almost never stall (only tail drain); above the bound it must
	// stall substantially (buffer back-pressure).
	alloc := AllocConfig{15, 12} // bound 26.7%
	below := SimulateLayer(uniformWork(1200, 64, 0.15), DefaultSliceConfig(alloc, true))
	above := SimulateLayer(uniformWork(1200, 64, 0.60), DefaultSliceConfig(alloc, true))
	if below.PredIdleFrac() > 0.05 {
		t.Fatalf("below bound: predictor idle %.3f too high", below.PredIdleFrac())
	}
	if above.PredIdleFrac() < 0.3 {
		t.Fatalf("above bound: predictor idle %.3f too low — no back-pressure?", above.PredIdleFrac())
	}
}

func TestDynamicWorkloadBeatsStatic(t *testing.T) {
	// Heavily skewed per-OFM sensitivity: static round-robin assignment
	// strands executor arrays; dynamic pulls work anywhere.
	w := LayerWork{OutputsPerOFM: 64, SensPerOFM: make([]int, 24)}
	for i := range w.SensPerOFM {
		if i%6 == 0 {
			w.SensPerOFM[i] = 48 // a few hot channels
		}
	}
	alloc := AllocConfig{15, 12}
	static := SimulateLayer(w, DefaultSliceConfig(alloc, false))
	dynamic := SimulateLayer(w, DefaultSliceConfig(alloc, true))
	if dynamic.Cycles > static.Cycles {
		t.Fatalf("dynamic %d cycles > static %d", dynamic.Cycles, static.Cycles)
	}
	if dynamic.ExecIdleFrac() > static.ExecIdleFrac() {
		t.Fatalf("dynamic exec idle %.3f > static %.3f",
			dynamic.ExecIdleFrac(), static.ExecIdleFrac())
	}
}

func TestReconfigurationReducesIdle(t *testing.T) {
	// A low-sensitivity layer on an executor-heavy static split wastes
	// executor arrays; auto-reconfiguration should cut overall idleness.
	w := uniformWork(100, 64, 0.08)
	bad := SimulateLayer(w, DefaultSliceConfig(AllocConfig{9, 18}, true))
	auto, alloc := SimulateLayerAuto(w)
	if alloc.Predictor != 21 {
		t.Fatalf("auto alloc %v, want 21P for 8%% sensitivity", alloc)
	}
	if auto.IdleFrac() >= bad.IdleFrac() {
		t.Fatalf("auto idle %.3f not better than static %.3f", auto.IdleFrac(), bad.IdleFrac())
	}
	if auto.Cycles >= bad.Cycles {
		t.Fatalf("auto cycles %d not better than %d", auto.Cycles, bad.Cycles)
	}
}

func TestSimulateLayerAllSensitive(t *testing.T) {
	w := uniformWork(12, 32, 1.0)
	res := SimulateLayer(w, DefaultSliceConfig(AllocConfig{9, 18}, true))
	// Executor is the bottleneck: 3 cycles × outputs / 18 arrays.
	bound := int64(3*w.TotalOutputs()) / 18
	if res.Cycles < bound {
		t.Fatalf("cycles %d below executor bound %d", res.Cycles, bound)
	}
}

func TestLayerWorkFromProfileMask(t *testing.T) {
	g := tensor.Geometry(3, 8, 8, 2, 3, 1, 1)
	mask := make([]bool, 2*2*64) // batch 2, 2 channels, 8×8
	for i := 0; i < 10; i++ {
		mask[i] = true // all in OFM 0
	}
	p := &quant.LayerProfile{
		Name: "c", Geom: g, Batch: 2,
		TotalOutputs: int64(len(mask)), SensitiveOutputs: 10, Mask: mask,
	}
	w := LayerWorkFromProfile(p)
	if len(w.SensPerOFM) != 4 || w.OutputsPerOFM != 64 {
		t.Fatalf("work shape: %d OFMs × %d", len(w.SensPerOFM), w.OutputsPerOFM)
	}
	if w.SensPerOFM[0] != 10 || w.SensPerOFM[1] != 0 {
		t.Fatalf("per-OFM counts %v", w.SensPerOFM)
	}
	if w.TotalSensitive() != 10 {
		t.Fatalf("total sensitive %d", w.TotalSensitive())
	}
}

func TestLayerWorkFromProfileFallback(t *testing.T) {
	g := tensor.Geometry(3, 8, 8, 2, 3, 1, 1)
	p := &quant.LayerProfile{
		Name: "c", Geom: g, Batch: 1,
		TotalOutputs: 128, SensitiveOutputs: 13,
	}
	w := LayerWorkFromProfile(p)
	if w.TotalSensitive() != 13 {
		t.Fatalf("fallback spread lost outputs: %d", w.TotalSensitive())
	}
}

func profileWith(sensFrac, highFrac float64) *quant.LayerProfile {
	g := tensor.Geometry(16, 16, 16, 32, 3, 1, 1)
	total := int64(1) * int64(g.TotalOutputs())
	macs := g.TotalMACs()
	return &quant.LayerProfile{
		Name: "c", Geom: g, Batch: 1,
		TotalOutputs:     total,
		SensitiveOutputs: int64(sensFrac * float64(total)),
		TotalMACs:        macs,
		HighInputMACs:    int64(highFrac * float64(macs)),
	}
}

func TestTable2AccelOrdering(t *testing.T) {
	p := profileWith(0.25, 0.5)
	accels := Table2Accels()
	cost := func(name string) int64 {
		return accels[name].NetworkCostOf([]*quant.LayerProfile{p}).TotalCycles()
	}
	int16c, int8c, drqc, odqc := cost("INT16"), cost("INT8"), cost("DRQ"), cost("ODQ")
	if !(odqc < drqc && drqc < int8c && int8c < int16c) {
		t.Fatalf("cycle ordering violated: INT16=%d INT8=%d DRQ=%d ODQ=%d",
			int16c, int8c, drqc, odqc)
	}
	// Shape target: ODQ should beat INT16 by well over 10× and DRQ by
	// a small-integer factor, mirroring the paper's 97.8% / 67.6%.
	if float64(int16c)/float64(odqc) < 10 {
		t.Fatalf("ODQ vs INT16 speedup only %.1fx", float64(int16c)/float64(odqc))
	}
	if r := float64(drqc) / float64(odqc); r < 1.5 || r > 20 {
		t.Fatalf("ODQ vs DRQ speedup %.1fx outside plausible band", r)
	}
}

func TestPECyclesModels(t *testing.T) {
	p := profileWith(0.5, 0.5)
	if got := peCycles(KindINT16, p); got != p.TotalMACs {
		t.Fatalf("INT16 pe cycles %d", got)
	}
	if got := peCycles(KindINT8, p); got != 4*p.TotalMACs {
		t.Fatalf("INT8 pe cycles %d", got)
	}
	wantDRQ := 4*p.HighInputMACs + (p.TotalMACs - p.HighInputMACs)
	if got := peCycles(KindDRQ, p); got != wantDRQ {
		t.Fatalf("DRQ pe cycles %d want %d", got, wantDRQ)
	}
	wantODQ := p.TotalMACs + 3*(p.TotalMACs/2)
	if got := peCycles(KindODQ, p); math.Abs(float64(got-wantODQ)) > 2 {
		t.Fatalf("ODQ pe cycles %d want %d", got, wantODQ)
	}
}

func TestODQSensitivityDrivesCost(t *testing.T) {
	accels := Table2Accels()
	lo := accels["ODQ"].NetworkCostOf([]*quant.LayerProfile{profileWith(0.1, 0)}).TotalPECycles()
	hi := accels["ODQ"].NetworkCostOf([]*quant.LayerProfile{profileWith(0.9, 0)}).TotalPECycles()
	if hi <= lo {
		t.Fatal("more sensitive outputs must cost more on ODQ")
	}
}

func TestUtilizationDerating(t *testing.T) {
	p := profileWith(0.25, 0.5)
	a := Table2Accels()["ODQ"]
	full := a.LayerCostOf(p).ComputeCycles
	a.Utilization = 0.5
	derated := a.LayerCostOf(p).ComputeCycles
	if derated < full*19/10 {
		t.Fatalf("derating too weak: %d vs %d", derated, full)
	}
}

func TestMemoryBytesScaleWithPrecision(t *testing.T) {
	p := profileWith(0.25, 0.5)
	accels := Table2Accels()
	d16 := accels["INT16"].LayerCostOf(p).DRAMBytes
	d8 := accels["INT8"].LayerCostOf(p).DRAMBytes
	d4 := accels["ODQ"].LayerCostOf(p).DRAMBytes
	if !(d4 < d8 && d8 < d16) {
		t.Fatalf("DRAM bytes ordering: %d %d %d", d16, d8, d4)
	}
}

func TestODQUtilizationPipeline(t *testing.T) {
	g := tensor.Geometry(8, 16, 16, 16, 3, 1, 1)
	total := int64(g.TotalOutputs())
	mask := make([]bool, total)
	for i := range mask {
		if i%5 == 0 {
			mask[i] = true
		}
	}
	masked := &quant.LayerProfile{
		Name: "c", Geom: g, Batch: 1,
		TotalOutputs: total, SensitiveOutputs: total / 5,
		TotalMACs: g.TotalMACs(), Mask: mask,
	}
	res, _ := SimulateLayerAuto(LayerWorkFromProfile(masked))
	want := 1 - res.IdleFrac()
	if want <= 0 || want >= 1 {
		t.Fatalf("layer utilization %v should lie strictly inside (0,1)", want)
	}
	if got := ODQUtilization([]*quant.LayerProfile{masked}); got != want {
		t.Fatalf("one masked layer: utilization %v, want %v", got, want)
	}

	// Two masked layers average by MACs.
	g2 := tensor.Geometry(8, 8, 8, 32, 3, 1, 1)
	mask2 := make([]bool, g2.TotalOutputs())
	for i := range mask2 {
		mask2[i] = i%3 != 0
	}
	masked2 := &quant.LayerProfile{
		Name: "c2", Geom: g2, Batch: 1,
		TotalOutputs: int64(len(mask2)), SensitiveOutputs: quant.MaskDensity(mask2),
		TotalMACs: g2.TotalMACs(), Mask: mask2,
	}
	res2, _ := SimulateLayerAuto(LayerWorkFromProfile(masked2))
	w1, w2 := float64(masked.TotalMACs), float64(masked2.TotalMACs)
	mean := (want*w1 + (1-res2.IdleFrac())*w2) / (w1 + w2)
	if got := ODQUtilization([]*quant.LayerProfile{masked, masked2}); math.Abs(got-mean) > 1e-12 {
		t.Fatalf("two masked layers: utilization %v, want MAC-weighted %v", got, mean)
	}

	// A profile without a mask carries no per-OFM schedule: it neither
	// counts toward the weighted mean nor dilutes it.
	bare := profileWith(0.9, 0)
	if got := ODQUtilization([]*quant.LayerProfile{bare, masked}); got != want {
		t.Fatalf("mask-less profile changed the utilization: %v, want %v", got, want)
	}
	if got := ODQUtilization([]*quant.LayerProfile{bare}); got != 1 {
		t.Fatalf("no masks: utilization %v, want 1", got)
	}
	if got := ODQUtilization(nil); got != 1 {
		t.Fatalf("no profiles: utilization %v, want 1", got)
	}
}
