package infer

import (
	"fmt"
	"os"

	"repro/internal/models"
	"repro/internal/nn"
)

// LoadModel builds the named architecture and, when ckptPath is nonempty,
// restores its weights from the checkpoint. It is the shared
// build-then-load step of odq-infer and odq-serve; an empty ckptPath
// yields the randomly initialized network (useful for smoke tests and
// demos).
func LoadModel(name string, cfg models.Config, ckptPath string) (*nn.Sequential, error) {
	net, err := models.Build(name, cfg)
	if err != nil {
		return nil, err
	}
	if ckptPath == "" {
		return net, nil
	}
	f, err := os.Open(ckptPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := nn.Load(f, net); err != nil {
		return nil, fmt.Errorf("loading %s: %w (was the checkpoint trained with different -model/-width/-qat flags?)", ckptPath, err)
	}
	return net, nil
}
