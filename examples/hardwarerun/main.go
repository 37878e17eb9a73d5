// Hardwarerun: pushes a whole network through the *functional* model of
// the ODQ accelerator datapath (package fabric) — weight-stationary PE
// arrays, line buffers, staggered executor clusters — and checks the
// result against the plain arithmetic definition of ODQ, while reporting
// the hardware-level accounting (cycles, DRAM traffic, idleness,
// line-buffer sharing).
package main

import (
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/fabric"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	// A briefly trained LeNet keeps the functional simulation fast.
	trainDS := dataset.MNISTLike(192, 31)
	testDS := dataset.MNISTLike(32, 32)
	net := models.LeNet5(models.Config{Classes: 10, QATBits: 4, Seed: 8})
	fmt.Println("training LeNet-5 (clipped warm-up, then 4-bit QAT)...")
	models.SetQATRelaxed(net, true)
	train.MustFit(net, trainDS, train.Options{
		Epochs: 8, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 9,
	})
	models.SetQATRelaxed(net, false)
	train.MustFit(net, trainDS, train.Options{
		Epochs: 4, BatchSize: 16, LR: 0.01, Momentum: 0.9, Seed: 10,
	})

	x, y := testDS.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})

	// Reference: the arithmetic definition of ODQ (threshold 0 → every
	// output sensitive → exact INT4).
	nn.SetConvExecTail(net, quant.NewStaticExec(4))
	want := net.Forward(x, false)
	nn.SetConvExecTail(net, nil)

	// The same inference through the modeled hardware.
	fe := fabric.New(fabric.WithConfig(fabric.DefaultConfig(0)))
	nn.SetConvExecTail(net, fe)
	got := net.Forward(x, false)
	acc := nn.Accuracy(got, y)
	nn.SetConvExecTail(net, nil)

	fmt.Printf("\nhardware-model output vs INT4 arithmetic: max deviation %.2g\n",
		tensor.MaxAbsDiff(got, want))
	fmt.Printf("accuracy through the modeled datapath: %.3f\n\n", acc)

	t := stats.NewTable("Hardware accounting (8 samples, threshold 0)",
		"metric", "value")
	t.AddRow("total slice cycles", fe.TotalCycles)
	t.AddRow("DRAM traffic (bytes)", fe.TotalDRAMBytes)
	t.AddRow("sensitive outputs", stats.Pct(fe.SensitiveFraction()))
	t.AddRow("array idle fraction", stats.Pct(fe.IdleFraction()))
	t.Render(os.Stdout)

	// Now with a real threshold: the executor skips insensitive outputs.
	fe2 := fabric.New(fabric.WithConfig(fabric.DefaultConfig(0.75)))
	nn.SetConvExecTail(net, fe2)
	got2 := net.Forward(x, false)
	acc2 := nn.Accuracy(got2, y)
	nn.SetConvExecTail(net, nil)
	fmt.Printf("threshold 0.75: accuracy %.3f, sensitive %s, cycles %d (vs %d all-sensitive)\n",
		acc2, stats.Pct(fe2.SensitiveFraction()), fe2.TotalCycles, fe.TotalCycles)
}
