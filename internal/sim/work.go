package sim

import "repro/internal/quant"

// LayerWorkFromProfile converts a recorded layer profile (which must have
// been collected with KeepMasks so per-output sensitivity is available)
// into the cycle simulator's workload description. Each (sample, output
// channel) pair becomes one OFM, matching how the accelerator streams
// output feature maps through the slice.
func LayerWorkFromProfile(p *quant.LayerProfile) LayerWork {
	g := p.Geom
	cols := g.OutH * g.OutW
	nOFM := p.Batch * g.OutC
	w := LayerWork{OutputsPerOFM: cols, SensPerOFM: make([]int, nOFM)}
	if len(p.Mask) == nOFM*cols {
		for ofm := 0; ofm < nOFM; ofm++ {
			w.SensPerOFM[ofm] = int(quant.MaskDensity(p.Mask[ofm*cols : (ofm+1)*cols]))
		}
		return w
	}
	// Without masks fall back to spreading the aggregate sensitive count
	// uniformly across OFMs.
	if p.TotalOutputs > 0 && nOFM > 0 {
		per := int(float64(p.SensitiveOutputs) / float64(nOFM))
		rem := int(p.SensitiveOutputs) - per*nOFM
		for i := range w.SensPerOFM {
			w.SensPerOFM[i] = per
			if i < rem {
				w.SensPerOFM[i]++
			}
		}
	}
	return w
}

// ODQUtilization derates the ODQ accelerator for scheduling losses: it
// runs the reconfigurable-slice simulation (SimulateLayerAuto) on every
// profile that carries a sensitivity mask and returns the mean achieved
// PE utilization (1 − idle fraction), weighted by each layer's MACs. It
// returns 1 when no profile has a mask.
func ODQUtilization(profiles []*quant.LayerProfile) float64 {
	var utilSum, wsum float64
	for _, p := range profiles {
		if len(p.Mask) == 0 {
			continue
		}
		res, _ := SimulateLayerAuto(LayerWorkFromProfile(p))
		utilSum += (1 - res.IdleFrac()) * float64(p.TotalMACs)
		wsum += float64(p.TotalMACs)
	}
	if wsum == 0 {
		return 1
	}
	return utilSum / wsum
}
