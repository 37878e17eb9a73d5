// Package repro_bench holds the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (each invoking the code that
// regenerates that artifact at test scale), plus kernel micro-benchmarks
// and the ablation benches called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem .
package repro_bench

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/drq"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

var (
	labOnce  sync.Once
	benchLab *experiments.Lab
)

// lab returns the shared experiment lab (models train once per process).
func lab() *experiments.Lab {
	labOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.TestScale(), nil)
	})
	return benchLab
}

// ---------- Kernel micro-benchmarks ----------

func BenchmarkGemmFloat(b *testing.B) {
	const m, k, n = 128, 128, 128
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	rng := tensor.NewRNG(1)
	for i := range a {
		a[i] = float32(rng.Normal())
	}
	for i := range bb {
		bb[i] = float32(rng.Normal())
	}
	b.SetBytes(int64(m*k+k*n+m*n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(a, bb, c, m, k, n)
	}
}

func BenchmarkGemmInt(b *testing.B) {
	const m, k, n = 128, 128, 128
	a := make([]int32, m*k)
	bb := make([]int32, k*n)
	c := make([]int64, m*n)
	rng := tensor.NewRNG(2)
	for i := range a {
		a[i] = int32(rng.Intn(15)) - 7
	}
	for i := range bb {
		bb[i] = int32(rng.Intn(15)) - 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmInt(a, bb, c, m, k, n)
	}
}

func BenchmarkIm2col(b *testing.B) {
	g := tensor.Geometry(16, 32, 32, 32, 3, 1, 1)
	src := make([]float32, 16*32*32)
	dst := make([]float32, g.ColRows()*g.ColCols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2col(src, g, dst)
	}
}

// ---------- Executor micro-benchmarks (one conv layer) ----------

func benchConvLayer() (*nn.Conv2D, *tensor.Tensor) {
	rng := tensor.NewRNG(3)
	conv := nn.NewConv2D("c", 16, 32, 3, 1, 1, false, rng)
	x := tensor.New(1, 16, 32, 32)
	rng.FillUniform(x, 0, 1)
	return conv, x
}

func BenchmarkConvFloat(b *testing.B) {
	conv, x := benchConvLayer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConvStaticINT8(b *testing.B) {
	conv, x := benchConvLayer()
	conv.Exec = quant.NewStaticExec(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConvDRQ(b *testing.B) {
	conv, x := benchConvLayer()
	conv.Exec = drq.NewExec(8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConvODQ(b *testing.B) {
	conv, x := benchConvLayer()
	conv.Exec = core.NewExec(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

// ---------- One benchmark per paper artifact ----------
// Each bench invokes the code path that regenerates the corresponding
// table or figure. Trained-model construction is amortized through the
// shared lab (excluded via ResetTimer on first use).

func BenchmarkFigure1(b *testing.B) {
	l := lab()
	experiments.Figure1(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure1(l)
	}
}

func BenchmarkFigure2(b *testing.B) {
	l := lab()
	experiments.Figure2(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure2(l)
	}
}

func BenchmarkFigure3(b *testing.B) {
	l := lab()
	experiments.Figure3(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure3(l)
	}
}

func BenchmarkFigure4(b *testing.B) {
	l := lab()
	experiments.Figure4(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure4(l)
	}
}

func BenchmarkFigure5(b *testing.B) {
	l := lab()
	experiments.Figure5(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure5(l)
	}
}

func BenchmarkFigure9(b *testing.B) {
	// ResNet-56 at test scale: heavier model; still one training.
	l := lab()
	experiments.Figure9(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure9(l)
	}
}

func BenchmarkFigure10(b *testing.B) {
	l := lab()
	experiments.Figure10(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure10(l)
	}
}

func BenchmarkFigure11(b *testing.B) {
	l := lab()
	experiments.Figure11(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure11(l)
	}
}

func BenchmarkTable1(b *testing.B) {
	l := lab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(l)
	}
}

func BenchmarkTable2(b *testing.B) {
	l := lab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table2(l)
	}
}

func BenchmarkFigure18(b *testing.B) {
	l := lab()
	experiments.Figure18(l, []string{"resnet20"}, []string{"c10"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure18(l, []string{"resnet20"}, []string{"c10"})
	}
}

func BenchmarkFigure19(b *testing.B) {
	l := lab()
	experiments.Figure19(l, []string{"resnet20"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure19(l, []string{"resnet20"})
	}
}

func BenchmarkFigure20(b *testing.B) {
	l := lab()
	experiments.Figure20(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure20(l)
	}
}

func BenchmarkFigure21(b *testing.B) {
	l := lab()
	experiments.Figure21(l, []string{"resnet20"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure21(l, []string{"resnet20"})
	}
}

func BenchmarkFigure22(b *testing.B) {
	l := lab()
	experiments.Figure22(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure22(l)
	}
}

func BenchmarkTable3(b *testing.B) {
	// Table 3 reads the stored per-model search results; benchmark on
	// the single cached model to avoid training all four architectures
	// inside a benchmark.
	l := lab()
	tm := l.Model("resnet20", "c10")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SearchThreshold(tm, 0.05, 3)
	}
}

// ---------- Ablation benches (DESIGN.md §6) ----------

func ablationWork() sim.LayerWork {
	w := sim.LayerWork{OutputsPerOFM: 256, SensPerOFM: make([]int, 64)}
	for i := range w.SensPerOFM {
		if i%8 == 0 {
			w.SensPerOFM[i] = 200
		} else {
			w.SensPerOFM[i] = 16
		}
	}
	return w
}

func BenchmarkAblationStaticAlloc(b *testing.B) {
	w := ablationWork()
	cfg := sim.DefaultSliceConfig(sim.AllocConfig{Predictor: 15, Executor: 12}, false)
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = sim.SimulateLayer(w, cfg).Cycles
	}
	b.ReportMetric(float64(cycles), "modeled-cycles")
}

func BenchmarkAblationDynamicAlloc(b *testing.B) {
	w := ablationWork()
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := sim.SimulateLayerAuto(w)
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "modeled-cycles")
}

func BenchmarkAblationPredictor2Bit(b *testing.B) {
	conv, x := benchConvLayer()
	e := core.NewExec(0.5) // 4-bit codes, 2-bit predictor (paper default)
	conv.Exec = e
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkAblationPredictor4Bit(b *testing.B) {
	conv, x := benchConvLayer()
	// INT8 extension: 4-bit predictor over 8-bit codes.
	e := core.NewExec(0.5, core.WithBits(8), core.WithPredBits(4))
	conv.Exec = e
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

// ---------- ODQ sparse-executor benches ----------
//
// The result executor computes the HL/LH/LL partials only for sensitive
// outputs. These benches pin the sensitive fraction at ~30%/60%/100% and
// compare the sparse parallel path against the dense-select reference
// and against serial execution. TestBitplaneBenchSnapshot
// (BITPLANE_BENCH_SNAPSHOT=1) writes the sparse-vs-dense grid to
// BENCH_bitplane.json.

// thresholdForSensitivity bisects the ODQ threshold until the executor's
// sensitive fraction lands near target on the given layer/input.
func thresholdForSensitivity(conv *nn.Conv2D, x *tensor.Tensor, target float64) float32 {
	if target >= 1 {
		return -1 // negative threshold: every output is sensitive
	}
	sensAt := func(th float32) float64 {
		e := core.NewExec(th, core.WithProfiling())
		conv.Exec = e
		conv.Forward(x, false)
		conv.Exec = nil
		return e.SensitiveFraction()
	}
	lo, hi := float32(0), float32(8)
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		if sensAt(mid) > target {
			lo = mid // too sensitive → raise threshold
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

var odqBenchGrid = []struct {
	name   string
	target float64
}{
	{"sens30", 0.30},
	{"sens60", 0.60},
	{"sens100", 1.00},
}

func BenchmarkODQConv(b *testing.B) {
	conv, x := benchConvLayer()
	for _, p := range odqBenchGrid {
		th := thresholdForSensitivity(conv, x, p.target)
		variants := []struct {
			name string
			opts []core.Option
		}{
			{"sparse-parallel", nil},
			{"sparse-serial", []core.Option{core.WithWorkers(1)}},
			{"dense", []core.Option{core.WithDenseReference()}},
		}
		for _, v := range variants {
			b.Run(p.name+"/"+v.name, func(b *testing.B) {
				conv.Exec = core.NewExec(th, v.opts...)
				defer func() { conv.Exec = nil }()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					conv.Forward(x, false)
				}
			})
		}
	}
}

func BenchmarkEnergyModel(b *testing.B) {
	g := tensor.Geometry(16, 16, 16, 32, 3, 1, 1)
	p := &quant.LayerProfile{
		Name: "c", Geom: g, Batch: 1,
		TotalOutputs:     int64(g.TotalOutputs()),
		SensitiveOutputs: int64(g.TotalOutputs()) / 4,
		TotalMACs:        g.TotalMACs(),
	}
	profiles := []*quant.LayerProfile{p}
	a := sim.Table2Accels()["ODQ"]
	consts := energy.DefaultConstants()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		energy.SchemeEnergy(a, profiles, consts)
	}
}
