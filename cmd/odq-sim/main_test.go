package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// profiles returns two conv layers of one sample, with every other
// output sensitive; masked attaches those masks, as an ODQ dump does.
func profiles(masked bool) []*quant.LayerProfile {
	var ps []*quant.LayerProfile
	for i, g := range []tensor.ConvGeom{
		tensor.Geometry(1, 12, 12, 4, 3, 1, 1),
		tensor.Geometry(4, 12, 12, 8, 3, 2, 1),
	} {
		p := &quant.LayerProfile{
			Name: []string{"conv1", "conv2"}[i], Index: i, Geom: g, Batch: 1,
			TotalOutputs: int64(g.TotalOutputs()), TotalMACs: g.TotalMACs(),
		}
		mask := make([]bool, g.TotalOutputs())
		for j := range mask {
			mask[j] = j%2 == 0
		}
		p.SensitiveOutputs = quant.MaskDensity(mask)
		if masked {
			p.Mask = mask
		}
		ps = append(ps, p)
	}
	return ps
}

// TestReportModelsODQOnlyFromMasks checks that a dump with masks gets
// an ODQ row and, with -layers, the per-layer ODQ table, while a dump
// without masks (a static or DRQ scheme's) gets neither, only a note.
func TestReportModelsODQOnlyFromMasks(t *testing.T) {
	const note = "dump carries no ODQ sensitivity masks"
	for _, masked := range []bool{true, false} {
		var b bytes.Buffer
		report(&b, profiles(masked), true)
		out := b.String()
		rows := map[string]bool{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				rows[f[0]] = true
			}
		}
		for _, row := range []string{"INT16", "INT8", "DRQ"} {
			if !rows[row] {
				t.Errorf("masked=%v: no %s row in\n%s", masked, row, out)
			}
		}
		hasODQ := rows["ODQ"] || strings.Contains(out, "Per-layer ODQ cost")
		if hasODQ != masked || strings.Contains(out, note) == masked {
			t.Errorf("masked=%v: ODQ rows present %v, note present %v in\n%s",
				masked, hasODQ, strings.Contains(out, note), out)
		}
		if masked && !strings.Contains(out, "conv2") {
			t.Errorf("masked dump lacks the per-layer table:\n%s", out)
		}
	}
}
