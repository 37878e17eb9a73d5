package repro_bench

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// BitplanePredictorBench compares the AND+POPCNT bitplane predictor
// kernel against the int-GEMM it replaced, at the benchmark conv layer's
// predictor shape. The bitplane timing includes activation packing (the
// real per-forward cost); weight planes are packed once, as the executor
// caches them.
type BitplanePredictorBench struct {
	Shape      string  `json:"shape"`
	BitplaneNs int64   `json:"bitplane_ns"`
	IntGemmNs  int64   `json:"int_gemm_ns"`
	Speedup    float64 `json:"speedup"`
}

// BitplaneConvRecord is one cell of the conv grid: sensitivity level ×
// executor variant.
type BitplaneConvRecord struct {
	Sensitivity string  `json:"sensitivity"`
	Threshold   float32 `json:"threshold"`
	Variant     string  `json:"variant"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BitplanePipelineBench times a multi-layer forward with the packed-INT4
// quantized-domain pipeline against the float round-trip path on the same
// net and executor.
type BitplanePipelineBench struct {
	Net              string  `json:"net"`
	FusedConvs       int     `json:"fused_convs"`
	FloatRoundtripNs int64   `json:"float_roundtrip_ns"`
	PackedDomainNs   int64   `json:"packed_domain_ns"`
	Speedup          float64 `json:"speedup"`
}

// BitplaneBenchSnapshot is the BENCH_bitplane.json schema.
type BitplaneBenchSnapshot struct {
	Layer     string                 `json:"layer"`
	Predictor BitplanePredictorBench `json:"predictor"`
	Records   []BitplaneConvRecord   `json:"records"`
	// SparseSpeedup maps each sensitivity level to dense-ns /
	// sparse-bitplane-ns. The tentpole acceptance bar is sens100 >= 1:
	// the ODQ sparse executor must not lose to dense even when every
	// output is sensitive.
	SparseSpeedup map[string]float64    `json:"sparse_speedup_vs_dense"`
	Pipeline      BitplanePipelineBench `json:"pipeline"`
}

// minInterleaved benchmarks the entries round-robin for the given number
// of rounds and keeps each entry's fastest result. Interleaving matters
// on a noisy shared host: slow-varying background load then hits every
// variant alike instead of whichever one happened to run during the
// burst, so the ratios between entries stay meaningful even when the
// absolute numbers wobble.
func minInterleaved(rounds int, fns ...func(b *testing.B)) []testing.BenchmarkResult {
	best := make([]testing.BenchmarkResult, len(fns))
	for rep := 0; rep < rounds; rep++ {
		for i, f := range fns {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				f(b)
			})
			if rep == 0 || res.NsPerOp() < best[i].NsPerOp() {
				best[i] = res
			}
		}
	}
	return best
}

// benchPackedNet builds a bench-scale flat net the packed pipeline can
// fuse: float first conv (tail-only convention), then two fusable
// conv(+bn)+act groups with a pool between them.
func benchPackedNet(rng *tensor.RNG) *nn.Sequential {
	act := func(name string, rangeV float32) *quant.QuantReLU {
		a := quant.NewQuantReLU(name, 4)
		a.Range = rangeV
		return a
	}
	conv0 := nn.NewConv2D("conv0", 3, 16, 3, 1, 1, true, rng)
	bn0 := nn.NewBatchNorm2D("bn0", 16)
	conv1 := nn.NewConv2D("conv1", 16, 32, 3, 1, 1, true, rng)
	bn1 := nn.NewBatchNorm2D("bn1", 32)
	conv2 := nn.NewConv2D("conv2", 32, 32, 3, 1, 1, false, rng)
	for _, bn := range []*nn.BatchNorm2D{bn0, bn1} {
		for ch := 0; ch < bn.C; ch++ {
			bn.RunningMean.Data[ch] = 0.1 * float32(rng.Normal())
			bn.RunningVar.Data[ch] = 0.5 + rng.Float32()
			bn.Gamma.W.Data[ch] = 0.5 + rng.Float32()
			bn.Beta.W.Data[ch] = 0.1 * float32(rng.Normal())
		}
	}
	return nn.NewSequential("benchnet",
		conv0, bn0, act("act0", 1),
		conv1, bn1, act("act1", 1.5), nn.NewMaxPool2D("pool1", 2, 2),
		conv2, act("act2", 1.2),
	)
}

// TestBitplaneBenchSnapshot regenerates BENCH_bitplane.json. It only runs
// when BITPLANE_BENCH_SNAPSHOT=1 (benchmarking inside the normal test
// suite would make CI timing-dependent):
//
//	BITPLANE_BENCH_SNAPSHOT=1 go test -run TestBitplaneBenchSnapshot .
func TestBitplaneBenchSnapshot(t *testing.T) {
	if os.Getenv("BITPLANE_BENCH_SNAPSHOT") != "1" {
		t.Skip("set BITPLANE_BENCH_SNAPSHOT=1 to regenerate BENCH_bitplane.json")
	}
	conv, x := benchConvLayer()
	snap := &BitplaneBenchSnapshot{
		Layer:         "conv 16x32x32 -> 32 filters 3x3 s1 p1, batch 1",
		SparseSpeedup: map[string]float64{},
	}

	// --- Predictor micro: HBS x HBS, bitplane vs int-GEMM ---
	const outC, rows, cols = 32, 16 * 3 * 3, 32 * 32
	rng := tensor.NewRNG(11)
	wh := make([]int32, outC*rows)  // signed 2-bit HBS weights
	xhT := make([]int32, cols*rows) // unsigned 2-bit HBS codes, [cols][rows]
	for i := range wh {
		wh[i] = int32(rng.Intn(4)) - 2
	}
	for i := range xhT {
		xhT[i] = int32(rng.Intn(4))
	}
	// The int-GEMM path wants the activation matrix as [rows][cols].
	xh := make([]int32, rows*cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			xh[r*cols+c] = xhT[c*rows+r]
		}
	}
	whBP := tensor.NewBitplanes(outC, rows, 2, true)
	whBP.PackRows(wh)
	acc := make([]int64, outC*cols)
	predRes := minInterleaved(3,
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xhBP := tensor.NewBitplanes(cols, rows, 2, false)
				xhBP.PackRows(xhT)
				for oc := 0; oc < outC; oc++ {
					tensor.BitplaneMulRow(acc[oc*cols:(oc+1)*cols], whBP, oc, xhBP)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.GemmInt(wh, xh, acc, outC, rows, cols)
			}
		})
	bpRes, gemmRes := predRes[0], predRes[1]
	snap.Predictor = BitplanePredictorBench{
		Shape:      "32x144 . 144x1024 (2-bit HBS)",
		BitplaneNs: bpRes.NsPerOp(),
		IntGemmNs:  gemmRes.NsPerOp(),
		Speedup:    float64(gemmRes.NsPerOp()) / float64(bpRes.NsPerOp()),
	}

	// --- Conv grid: sensitivity x executor variant ---
	variants := []struct {
		name string
		opts []core.Option
	}{
		{"sparse-bitplane", nil},
		{"dense", []core.Option{core.WithDenseReference()}},
	}
	for _, p := range odqBenchGrid {
		th := thresholdForSensitivity(conv, x, p.target)
		fns := make([]func(b *testing.B), len(variants))
		for i, v := range variants {
			exec := core.NewExec(th, v.opts...)
			fns[i] = func(b *testing.B) {
				conv.Exec = exec
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					conv.Forward(x, false)
				}
			}
		}
		results := minInterleaved(3, fns...)
		conv.Exec = nil
		ns := map[string]int64{}
		for i, v := range variants {
			res := results[i]
			ns[v.name] = res.NsPerOp()
			snap.Records = append(snap.Records, BitplaneConvRecord{
				Sensitivity: p.name,
				Threshold:   th,
				Variant:     v.name,
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			})
		}
		snap.SparseSpeedup[p.name] = float64(ns["dense"]) / float64(ns["sparse-bitplane"])
	}
	if s := snap.SparseSpeedup["sens100"]; s < 1.0 {
		t.Errorf("sparse bitplane executor lost to dense at 100%% sensitivity: speedup %.3f", s)
	}

	// --- Packed-domain pipeline vs float round-trip, multi-layer ---
	nrng := tensor.NewRNG(12)
	net := benchPackedNet(nrng)
	px := tensor.New(1, 3, 32, 32)
	nrng.FillUniform(px, 0, 1)

	sess := infer.NewSessionFromExecutor(net, "odq", core.NewExec(0.5), true)
	if err := sess.EnablePackedDomain(); err != nil {
		t.Fatalf("EnablePackedDomain: %v", err)
	}
	fused := sess.Pipeline().FusedConvs()
	// The float round-trip path is the exact module chain the packed
	// session replaced (Session.Forward without a pipeline is
	// net.Forward); benchmarking it directly lets the two paths
	// interleave on one session.
	pipeRes := minInterleaved(3,
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.Forward(px, false)
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sess.Forward(px)
			}
		})
	floatRes, packedRes := pipeRes[0], pipeRes[1]
	sess.Close()
	snap.Pipeline = BitplanePipelineBench{
		Net:              "conv3-16 / conv16-32+pool / conv32-32, 32x32 input, 2 fused",
		FusedConvs:       fused,
		FloatRoundtripNs: floatRes.NsPerOp(),
		PackedDomainNs:   packedRes.NsPerOp(),
		Speedup:          float64(floatRes.NsPerOp()) / float64(packedRes.NsPerOp()),
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_bitplane.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("predictor bitplane-vs-gemm speedup: %.2f", snap.Predictor.Speedup)
	t.Logf("sparse-vs-dense speedups: %v", snap.SparseSpeedup)
	t.Logf("packed pipeline speedup: %.2f", snap.Pipeline.Speedup)
}
