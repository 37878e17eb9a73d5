// Package repro_bench holds the kernel micro-benchmarks: float and
// integer GEMM, im2col, one ODQ conv layer at pinned sensitive fractions
// (sparse, serial and dense-reference executors), and the Table-2 energy
// model. The end-to-end benchmark — whole networks through infer.Session
// and whole requests through the server — is bench/ (bash bench/run.sh).
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
package repro_bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

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

// ---------- ODQ sparse-executor benches ----------
//
// The result executor computes the HL/LH/LL partials only for sensitive
// outputs. These benches pin the sensitive fraction at ~30%/60%/100% and
// compare the sparse parallel path against the dense-select reference
// and against serial execution. End to end, the same sparse-vs-dense
// split is bench/'s resnet20-sparse vs resnet20-dense workloads, per
// layer in core.conv_ms.* and quant.sensitivity.*.

func benchConvLayer() (*nn.Conv2D, *tensor.Tensor) {
	rng := tensor.NewRNG(3)
	conv := nn.NewConv2D("c", 16, 32, 3, 1, 1, false, rng)
	x := tensor.New(1, 16, 32, 32)
	rng.FillUniform(x, 0, 1)
	return conv, x
}

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

// ---------- Accelerator model ----------

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
