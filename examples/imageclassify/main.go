// Imageclassify: the paper's end-to-end story on one workload. Trains a
// quantization-aware ResNet-20 on a synthetic CIFAR-10-like dataset, then
// compares the quantization schemes of the evaluation — static INT16/INT8,
// DRQ and ODQ — on accuracy, modeled execution time on the Table-2
// accelerators, and modeled energy.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drq"
	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

func main() {
	trainDS := dataset.SyntheticCIFAR10(256, 11)
	testDS := dataset.SyntheticCIFAR10(96, 12)

	net := models.ResNet(20, models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: 5})
	fmt.Println("training ResNet-20 (4-bit QAT)...")
	train.MustFit(net, trainDS, train.Options{
		Epochs: 16, BatchSize: 16, LR: 0.02, Momentum: 0.9,
		Decay: 1e-4, Seed: 6, LRDropEvery: 10, Log: os.Stdout,
	})

	eval := func(install func(), uninstall func()) float64 {
		install()
		defer uninstall()
		return train.Evaluate(net, testDS, 32)
	}

	// Profile batch for the performance/energy models.
	calib, _ := testDS.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})

	// --- Accuracy under each scheme ---
	table := stats.NewTable("Scheme comparison (ResNet-20, synthetic CIFAR-10)",
		"scheme", "accuracy", "high-precision share")

	floatAcc := train.Evaluate(net, testDS, 32)
	table.AddRow("float (QAT grid)", stats.Pct(floatAcc), "-")

	int8 := quant.NewStaticExec(8, quant.WithStaticProfiling())
	acc := eval(func() { nn.SetConvExec(net, int8) }, func() { nn.SetConvExec(net, nil) })
	table.AddRow("static INT8", stats.Pct(acc), "100.0%")

	int16 := quant.NewStaticExec(16)
	acc = eval(func() { nn.SetConvExec(net, int16) }, func() { nn.SetConvExec(net, nil) })
	table.AddRow("static INT16", stats.Pct(acc), "100.0%")

	drq84 := drq.NewExec(8, 4, drq.WithProfiling())
	acc = eval(func() { nn.SetConvExecTail(net, drq84) }, func() { nn.SetConvExecTail(net, nil) })
	table.AddRow("DRQ 8/4", stats.Pct(acc), highShare(drq84))

	drq42 := drq.NewExec(4, 2, drq.WithProfiling())
	acc = eval(func() { nn.SetConvExecTail(net, drq42) }, func() { nn.SetConvExecTail(net, nil) })
	table.AddRow("DRQ 4/2", stats.Pct(acc), highShare(drq42))

	// ODQ needs its threshold-aware fine-tuning pass (paper §3) before
	// evaluation: the network adapts to predictor-only insensitive
	// outputs via straight-through training with frozen batch norms.
	odq := core.NewExec(0.25, core.WithoutWeightCache(), core.WithMaskRecording())
	nn.SetConvTrainExec(net, odq)
	nn.SetBNFrozen(net, true)
	train.MustFit(net, trainDS, train.Options{
		Epochs: 4, BatchSize: 16, LR: 0.005, Momentum: 0.9, Seed: 7,
	})
	nn.SetBNFrozen(net, false)
	nn.SetConvTrainExec(net, nil)

	odq.Reset() // discard fine-tuning-pass profiles; measure inference only
	acc = eval(func() { nn.SetConvExecTail(net, odq) }, func() { nn.SetConvExecTail(net, nil) })
	table.AddRow("ODQ 4/2 (th=0.25, fine-tuned)", stats.Pct(acc), stats.Pct(odq.SensitiveFraction()))
	table.Render(os.Stdout)

	// --- Modeled execution time and energy on the Table-2 accelerators ---
	int8.Reset()
	nn.SetConvExec(net, int8)
	net.Forward(calib, false)
	nn.SetConvExec(net, nil)
	staticProfiles := int8.Profiles()

	drq84.Reset()
	nn.SetConvExecTail(net, drq84)
	net.Forward(calib, false)
	nn.SetConvExecTail(net, nil)
	drqProfiles := drq84.Profiles()

	odq.Reset()
	nn.SetConvExecTail(net, odq)
	net.Forward(calib, false)
	nn.SetConvExecTail(net, nil)
	odqProfiles := odq.Profiles()

	accels := sim.Table2Accels()
	consts := energy.DefaultConstants()
	perf := stats.NewTable("Modeled cost on the Table-2 accelerators (lower is better)",
		"accelerator", "cycles", "vs INT16", "energy", "dram/buffer/cores")
	var base float64
	for _, name := range []string{"INT16", "INT8", "DRQ", "ODQ"} {
		profiles := staticProfiles
		switch name {
		case "DRQ":
			profiles = drqProfiles
		case "ODQ":
			profiles = odqProfiles
			// Derate for scheduling losses measured by the cycle sim.
			accels["ODQ"].Utilization = sim.ODQUtilization(odqProfiles)
		}
		bd, nc := energy.SchemeEnergy(accels[name], profiles, consts)
		cycles := float64(nc.TotalCycles())
		if name == "INT16" {
			base = cycles
		}
		tot := bd.Total()
		perf.AddRow(name, nc.TotalCycles(), fmt.Sprintf("%.3fx", cycles/base),
			fmt.Sprintf("%.1f nJ", tot/1e3),
			fmt.Sprintf("%s/%s/%s", stats.Pct(bd.DRAM/tot), stats.Pct(bd.Buffer/tot), stats.Pct(bd.Cores/tot)))
	}
	perf.Render(os.Stdout)
}

func highShare(e *drq.Exec) string {
	var hi, tot int64
	for _, p := range e.Profiles() {
		hi += p.HighInputMACs
		tot += p.TotalMACs
	}
	if tot == 0 {
		return "-"
	}
	return stats.Pct(float64(hi) / float64(tot))
}
