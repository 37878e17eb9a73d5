package dataset

import "repro/internal/tensor"

// Augmenter applies the standard CIFAR training-time augmentations —
// random crop with reflection padding and random horizontal flip — to
// batches. Augmentation improves the small-sample training runs this
// reproduction uses and mirrors the training recipes the paper's models
// were trained with.
type Augmenter struct {
	// Pad is the crop padding in pixels (4 for CIFAR).
	Pad int
	// Flip enables random horizontal flips.
	Flip bool

	seed int64
	rng  *tensor.RNG
}

// NewAugmenter builds a deterministic augmenter.
func NewAugmenter(pad int, flip bool, seed int64) *Augmenter {
	return &Augmenter{Pad: pad, Flip: flip, seed: seed, rng: tensor.NewRNG(seed)}
}

// SeedBatch rewinds the stream to a position derived from (base seed,
// epoch, batch). The training loop reseeds before every batch so the
// augmentations a batch receives depend only on its global position —
// not on which worker ran it or what that worker augmented earlier —
// which keeps N-worker runs bit-identical to 1-worker runs and lets a
// resumed run replay the exact augmentations of an uninterrupted one.
func (a *Augmenter) SeedBatch(epoch, batch int) {
	// Golden-ratio mixing keeps adjacent epochs' streams uncorrelated; a
	// second constant decorrelates the per-batch streams from each other.
	a.rng = tensor.NewRNG(a.seed + int64(epoch)*0x9E3779B9 + (int64(batch)+1)*0x85EBCA6B)
}

// Apply augments a batch [N,C,H,W] in place-ish (returns a new tensor;
// the input is untouched).
func (a *Augmenter) Apply(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(x.Shape...)
	for s := 0; s < n; s++ {
		dy, dx := 0, 0
		if a.Pad > 0 {
			dy = a.rng.Intn(2*a.Pad+1) - a.Pad
			dx = a.rng.Intn(2*a.Pad+1) - a.Pad
		}
		flip := a.Flip && a.rng.Intn(2) == 1
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				sy := reflect(y+dy, h)
				for xx := 0; xx < w; xx++ {
					sx := xx + dx
					if flip {
						sx = (w - 1 - xx) + dx
					}
					sx = reflect(sx, w)
					out.Set4(s, ch, y, xx, x.At4(s, ch, sy, sx))
				}
			}
		}
	}
	return out
}

// reflect mirrors an index back into [0,n) (reflection padding).
func reflect(i, n int) int {
	if n == 1 {
		return 0
	}
	for i < 0 || i >= n {
		if i < 0 {
			i = -i
		}
		if i >= n {
			i = 2*(n-1) - i
		}
	}
	return i
}
