// Command odq-sim models execution time and energy for a profile dump
// (produced by `odq-infer -dump`) on the paper's Table-2 accelerators.
// This is the second half of the paper's methodology: the framework dumps
// per-layer sensitivity masks, the simulator turns them into performance
// and energy numbers.
//
// Usage:
//
//	odq-infer -model resnet20 -scheme odq -dump profiles.bin
//	odq-sim -in profiles.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/energy"
	"repro/internal/maskio"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	in := flag.String("in", "", "profile dump path (from odq-infer -dump)")
	perLayer := flag.Bool("layers", false, "print per-layer costs for the ODQ accelerator")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "odq-sim: -in is required")
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	profiles, err := maskio.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(profiles) == 0 {
		fmt.Fprintln(os.Stderr, "odq-sim: dump holds no layers")
		os.Exit(1)
	}

	accels := sim.Table2Accels()
	// ODQ utilization from the cycle-level slice simulation of the
	// layers whose masks were dumped.
	accels["ODQ"].Utilization = sim.ODQUtilization(profiles)

	var highMACs int64
	for _, p := range profiles {
		highMACs += p.HighInputMACs
	}

	consts := energy.DefaultConstants()
	t := stats.NewTable("Modeled cost on the Table-2 accelerators",
		"accelerator", "cycles", "vs INT16", "energy (nJ)", "dram/buffer/cores")
	var base float64
	for _, name := range []string{"INT16", "INT8", "DRQ", "ODQ"} {
		bd, nc := energy.SchemeEnergy(accels[name], profiles, consts)
		cycles := float64(nc.TotalCycles())
		if name == "INT16" {
			base = cycles
		}
		tot := bd.Total()
		t.AddRow(name, nc.TotalCycles(), fmt.Sprintf("%.3fx", cycles/base),
			fmt.Sprintf("%.1f", tot/1e3),
			fmt.Sprintf("%s/%s/%s", stats.Pct(bd.DRAM/tot), stats.Pct(bd.Buffer/tot), stats.Pct(bd.Cores/tot)))
	}
	t.Render(os.Stdout)
	if highMACs == 0 {
		fmt.Println("note: dump carries no DRQ precision mix (HighInputMACs=0);" +
			" the DRQ row assumes all-low-precision inputs and is optimistic." +
			" Dump with -scheme drq84 for a faithful DRQ estimate.")
	}

	if *perLayer {
		nc := accels["ODQ"].NetworkCostOf(profiles)
		lt := stats.NewTable("Per-layer ODQ cost", "layer", "compute", "memory", "total", "sensitive")
		for i, lc := range nc.Layers {
			p := profiles[i]
			frac := 0.0
			if p.TotalOutputs > 0 {
				frac = float64(p.SensitiveOutputs) / float64(p.TotalOutputs)
			}
			lt.AddRow(lc.Name, lc.ComputeCycles, lc.MemoryCycles, lc.TotalCycles, stats.Pct(frac))
		}
		lt.Render(os.Stdout)
	}
}
