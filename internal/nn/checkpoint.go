package nn

import (
	"fmt"
	"io"

	"repro/internal/ckpt"
)

// StateTensors collects every persistent tensor of the module tree —
// trainable parameters plus batch-norm running statistics — keyed by
// name. It errors on duplicate names: two parameters sharing a name
// would silently overwrite each other in the map, so one of them would
// load with the other's values (a corrupted model with no symptom until
// accuracy collapses).
func StateTensors(m Module) (map[string][]float32, error) {
	out := make(map[string][]float32)
	var err error
	record := func(name string, data []float32) {
		if _, dup := out[name]; dup && err == nil {
			err = fmt.Errorf("nn: duplicate state tensor name %q: parameter names must be unique for checkpointing", name)
		}
		out[name] = data
	}
	for _, p := range m.Params() {
		record(p.Name, p.W.Data)
	}
	m.Visit(func(mod Module) {
		if bn, ok := mod.(*BatchNorm2D); ok {
			record(bn.Name+".running_mean", bn.RunningMean.Data)
			record(bn.Name+".running_var", bn.RunningVar.Data)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Save writes the module's parameters and batch-norm statistics to w in
// checkpoint format v2 (framed, CRC-checksummed; see package ckpt).
// Training code that also needs optimizer/progress state saved uses
// package ckpt directly with these tensors as the model section.
func Save(w io.Writer, m Module) error {
	state, err := StateTensors(m)
	if err != nil {
		return err
	}
	return ckpt.Write(w, &ckpt.Checkpoint{Model: state})
}

// Load restores state previously written by Save into a module with the
// same architecture (parameter names and shapes must match exactly).
func Load(r io.Reader, m Module) error {
	ck, err := ckpt.Read(r)
	if err != nil {
		return fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	return ApplyState(m, ck.Model)
}

// ApplyState copies a name→values state map (a checkpoint's model
// section) into the module tree, validating that names and shapes match
// exactly in both directions.
func ApplyState(m Module, tensors map[string][]float32) error {
	state, err := StateTensors(m)
	if err != nil {
		return err
	}
	if len(state) != len(tensors) {
		return fmt.Errorf("nn: checkpoint has %d tensors, model has %d", len(tensors), len(state))
	}
	for name, dst := range state {
		src, ok := tensors[name]
		if !ok {
			return fmt.Errorf("nn: checkpoint missing tensor %q", name)
		}
		if len(src) != len(dst) {
			return fmt.Errorf("nn: tensor %q has %d values in checkpoint, model wants %d",
				name, len(src), len(dst))
		}
		copy(dst, src)
	}
	return nil
}
