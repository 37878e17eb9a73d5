package sim

import "repro/internal/quant"

// ReconfigPenaltyCycles is the cost of re-assigning the reconfigurable
// arrays between layers: in-flight work drains and the new weight set
// streams into the PE registers. The paper's reconfiguration happens
// between OFM groups; a fixed pipeline-drain cost per switch is the
// first-order model.
const ReconfigPenaltyCycles = 64

// NetworkSliceResult aggregates a whole network's pass through one
// reconfigurable PE slice.
type NetworkSliceResult struct {
	// Layers holds the per-layer simulation results in order.
	Layers []SliceResult
	// Allocs holds the chosen allocation per layer.
	Allocs []AllocConfig
	// Reconfigs counts allocation switches between consecutive layers.
	Reconfigs int
	// Cycles is the total including reconfiguration penalties.
	Cycles int64
}

// IdleFrac returns the network-wide idle fraction (array-cycles).
func (r *NetworkSliceResult) IdleFrac() float64 {
	var busy, idle int64
	for _, l := range r.Layers {
		busy += l.PredBusy + l.ExecBusy
		idle += l.PredIdle + l.ExecIdle
	}
	if busy+idle == 0 {
		return 0
	}
	return float64(idle) / float64(busy+idle)
}

// SimulateNetwork runs every layer through the reconfigurable slice with
// per-layer Table-1 allocation and dynamic workload scheduling, charging
// a drain penalty whenever the allocation changes.
func SimulateNetwork(works []LayerWork) *NetworkSliceResult {
	res := &NetworkSliceResult{}
	prev := AllocConfig{}
	for i, w := range works {
		sr, alloc := SimulateLayerAuto(w)
		res.Layers = append(res.Layers, sr)
		res.Allocs = append(res.Allocs, alloc)
		res.Cycles += sr.Cycles
		if i > 0 && alloc != prev {
			res.Reconfigs++
			res.Cycles += ReconfigPenaltyCycles
		}
		prev = alloc
	}
	return res
}

// SimulateNetworkStatic runs every layer with one fixed allocation and
// scheduling mode — the baseline SimulateNetwork is compared against.
func SimulateNetworkStatic(works []LayerWork, alloc AllocConfig, dynamicWorkload bool) *NetworkSliceResult {
	res := &NetworkSliceResult{}
	for _, w := range works {
		sr := SimulateLayer(w, DefaultSliceConfig(alloc, dynamicWorkload))
		res.Layers = append(res.Layers, sr)
		res.Allocs = append(res.Allocs, alloc)
		res.Cycles += sr.Cycles
	}
	return res
}

// NetworkWorks converts recorded layer profiles (with masks) into the
// cycle simulator's workload list.
func NetworkWorks(profiles []*quant.LayerProfile) []LayerWork {
	out := make([]LayerWork, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, LayerWorkFromProfile(p))
	}
	return out
}
