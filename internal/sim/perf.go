package sim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/quant"
)

// Kind identifies which accelerator cost model applies.
type Kind int

// Accelerator kinds (the four columns of Table 2).
const (
	KindINT16 Kind = iota // DoReFa-Net static INT16 on native INT16 PEs
	KindINT8              // DoReFa-Net static INT8 on INT4 PEs (4 cycles/MAC)
	KindDRQ               // DRQ INT8/INT4 mixed on INT4 PEs
	KindODQ               // ODQ INT4/INT2 on INT2 PEs (predictor+executor)
)

// Accel is one accelerator configuration. The paper's Table 2 fixes all
// four to the same silicon area (0.17 mm² of PEs) and the same 0.17 MB of
// on-chip memory, which yields the PE counts below.
type Accel struct {
	Name string
	Kind Kind
	// PEs is the processing-element count at this accelerator's native
	// PE width (Table 2: 120 / 1692 / 1692 / 4860).
	PEs int
	// Utilization derates compute throughput for scheduling losses
	// (1 = perfect). For ODQ this is fed from the cycle simulation.
	Utilization float64
	// Mem is the capacity-aware memory hierarchy (on-chip buffer,
	// tiling, input refetch, DRAM bandwidth) that prices the traffic.
	Mem *mem.System
}

// Table2Accels returns the paper's four accelerator configurations. All
// have the Table-2 memory system; they differ in PE count and native
// width.
func Table2Accels() map[string]*Accel {
	return map[string]*Accel{
		"INT16": {Name: "INT16", Kind: KindINT16, PEs: 120, Utilization: 1, Mem: mem.DefaultSystem()},
		"INT8":  {Name: "INT8", Kind: KindINT8, PEs: 1692, Utilization: 1, Mem: mem.DefaultSystem()},
		"DRQ":   {Name: "DRQ", Kind: KindDRQ, PEs: 1692, Utilization: 1, Mem: mem.DefaultSystem()},
		"ODQ":   {Name: "ODQ", Kind: KindODQ, PEs: 4860, Utilization: 1, Mem: mem.DefaultSystem()},
	}
}

// LayerCost is the modeled cost of one layer on one accelerator.
type LayerCost struct {
	Name          string
	ComputeCycles int64
	MemoryCycles  int64
	// TotalCycles = max(compute, memory): compute and DMA overlap under
	// double buffering.
	TotalCycles int64
	// PECycles is the raw PE-occupancy (MAC-cycles) before dividing by
	// the PE count; the energy model consumes it.
	PECycles int64
	// DRAMBytes / BufferBytes are the modeled traffic volumes.
	DRAMBytes   int64
	BufferBytes int64
}

// NetworkCost aggregates layer costs.
type NetworkCost struct {
	Accel  string
	Layers []LayerCost
}

// TotalCycles sums the per-layer totals.
func (n *NetworkCost) TotalCycles() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.TotalCycles
	}
	return t
}

// TotalPECycles sums raw PE occupancy.
func (n *NetworkCost) TotalPECycles() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.PECycles
	}
	return t
}

// TotalDRAMBytes sums modeled DRAM traffic.
func (n *NetworkCost) TotalDRAMBytes() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.DRAMBytes
	}
	return t
}

// TotalBufferBytes sums modeled on-chip buffer traffic.
func (n *NetworkCost) TotalBufferBytes() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.BufferBytes
	}
	return t
}

// operandBits returns (weightBits, actBits, outBits) moved per element for
// each accelerator kind. Outputs are re-quantized to the activation width
// before write-back (the next layer consumes quantized activations), so
// output traffic scales with precision too. DRQ moves its high-precision
// widths (both weight precisions are resident on chip).
func operandBits(k Kind) (wBits, aBits, oBits int) {
	switch k {
	case KindINT16:
		return 16, 16, 16
	case KindINT8:
		return 8, 8, 8
	case KindDRQ:
		return 8, 8, 8 // sensitive regions dominate traffic sizing
	case KindODQ:
		return 4, 4, 4
	default:
		panic(fmt.Sprintf("sim: unknown kind %d", k))
	}
}

// peCycles returns the raw MAC-cycle demand of a layer under each kind's
// arithmetic model:
//
//	INT16: native PEs, 1 cycle per MAC.
//	INT8:  INT4 PEs compose an 8-bit MAC in 4 cycles (BitFusion).
//	DRQ:   high-precision-input MACs cost 4 cycles, the rest 1.
//	ODQ:   every MAC passes the INT2 predictor (1 cycle); MACs of
//	       sensitive outputs additionally pay the 3-cycle executor pass.
func peCycles(k Kind, p *quant.LayerProfile) int64 {
	switch k {
	case KindINT16:
		return p.TotalMACs
	case KindINT8:
		return 4 * p.TotalMACs
	case KindDRQ:
		low := p.TotalMACs - p.HighInputMACs
		return 4*p.HighInputMACs + low
	case KindODQ:
		sensMACs := int64(0)
		if p.TotalOutputs > 0 {
			frac := float64(p.SensitiveOutputs) / float64(p.TotalOutputs)
			sensMACs = int64(frac * float64(p.TotalMACs))
		}
		return p.TotalMACs + int64(ExecutorCyclesPerOutput)*sensMACs
	default:
		panic("sim: unknown kind")
	}
}

// LayerCostOf models one layer on this accelerator from its profile.
func (a *Accel) LayerCostOf(p *quant.LayerProfile) LayerCost {
	wBits, aBits, oBits := operandBits(a.Kind)
	tr, err := a.Mem.ConvTraffic(p.Geom, p.Batch, wBits, aBits, oBits)
	if err != nil {
		panic(fmt.Sprintf("sim: memory model: %v", err))
	}

	pe := peCycles(a.Kind, p)
	util := a.Utilization
	if util <= 0 || util > 1 {
		util = 1
	}
	compute := int64(float64(pe) / (float64(a.PEs) * util))
	if compute < 1 {
		compute = 1
	}
	total := compute
	if tr.DRAMCycles > total {
		total = tr.DRAMCycles
	}
	return LayerCost{
		Name:          p.Name,
		ComputeCycles: compute,
		MemoryCycles:  tr.DRAMCycles,
		TotalCycles:   total,
		PECycles:      pe,
		DRAMBytes:     tr.DRAMBytes,
		BufferBytes:   tr.BufferBytes,
	}
}

// NetworkCostOf models a whole network from its per-layer profiles.
func (a *Accel) NetworkCostOf(profiles []*quant.LayerProfile) *NetworkCost {
	nc := &NetworkCost{Accel: a.Name}
	for _, p := range profiles {
		nc.Layers = append(nc.Layers, a.LayerCostOf(p))
	}
	return nc
}
