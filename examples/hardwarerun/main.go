// Hardwarerun: runs a whole network through the ODQ executor with mask
// recording on, checks it against the plain arithmetic definition of ODQ,
// and feeds the recorded masks to the accelerator model (package sim) —
// the dump-masks-into-a-simulator method of the paper's §5.2. The
// reconfigurable PE slice of §4.3 turns the masks into cycles and array
// idleness, and the Table-2 memory system into DRAM traffic.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/train"
)

// hwRun is one inference through the ODQ executor and its modeled cost.
type hwRun struct {
	out       *tensor.Tensor
	sensitive float64
	slice     *sim.NetworkSliceResult
	dramBytes int64
}

// runODQ runs x through net's tail convs on a mask-recording ODQ
// executor and models the recorded masks on the accelerator.
func runODQ(net nn.Module, x *tensor.Tensor, threshold float32) hwRun {
	e := core.NewExec(threshold, core.WithMaskRecording())
	nn.SetConvExecTail(net, e)
	out := net.Forward(x, false)
	nn.SetConvExecTail(net, nil)

	profiles := e.Profiles()
	return hwRun{
		out:       out,
		sensitive: e.SensitiveFraction(),
		slice:     sim.SimulateNetwork(sim.NetworkWorks(profiles)),
		dramBytes: sim.Table2Accels()["ODQ"].NetworkCostOf(profiles).TotalDRAMBytes(),
	}
}

func main() {
	// A briefly trained LeNet keeps the example fast.
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

	all := runODQ(net, x, 0)
	fmt.Printf("\nODQ at threshold 0 vs INT4 arithmetic: max deviation %.2g\n",
		tensor.MaxAbsDiff(all.out, want))
	fmt.Printf("accuracy: %.3f\n\n", nn.Accuracy(all.out, y))

	t := stats.NewTable("Modeled accelerator cost (8 samples, threshold 0)",
		"metric", "value")
	t.AddRow("total slice cycles", all.slice.Cycles)
	t.AddRow("DRAM traffic (bytes)", all.dramBytes)
	t.AddRow("sensitive outputs", stats.Pct(all.sensitive))
	t.AddRow("array idle fraction", stats.Pct(all.slice.IdleFrac()))
	t.Render(os.Stdout)

	// Now with a real threshold: the executor skips insensitive outputs.
	cut := runODQ(net, x, 0.75)
	fmt.Printf("threshold 0.75: accuracy %.3f, sensitive %s, cycles %d (vs %d all-sensitive)\n",
		nn.Accuracy(cut.out, y), stats.Pct(cut.sensitive), cut.slice.Cycles, all.slice.Cycles)
}
