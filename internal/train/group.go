package train

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// groupRunner drives Fit's one training loop, group-synchronous and
// data-parallel: each optimizer step covers a sync group of G
// consecutive batches of the seed-keyed shuffle, this rank computes the
// group members whose group-local index i has i % world == rank, and the
// reducer folds every member's isolated gradient in ascending index
// order. Because the fold
// order, the batch-norm statistic replay order and the metric
// accumulation order all depend only on batch indices — never on which
// rank computed what — any worker count walks the identical float
// trajectory, which is what makes checkpoints byte-equal across fleet
// sizes and lets a run resume under a different worker count.
type groupRunner struct {
	red         dist.GradReducer
	world, rank int
	G           int

	params  []*nn.Param
	gradLen int
	sum     []float32 // folded group gradient
	vecs    [][]float32
	locals  []dist.BatchGrad

	bns     []*nn.BatchNorm2D
	statLen int
}

func newGroupRunner(params []*nn.Param, red dist.GradReducer, world, rank, G int) *groupRunner {
	gradLen := 0
	for _, p := range params {
		gradLen += p.W.Len()
	}
	maxOwned := (G + world - 1) / world
	g := &groupRunner{
		red: red, world: world, rank: rank, G: G,
		params: params, gradLen: gradLen,
		sum:    make([]float32, gradLen),
		vecs:   make([][]float32, maxOwned),
		locals: make([]dist.BatchGrad, 0, maxOwned),
	}
	for i := range g.vecs {
		g.vecs[i] = make([]float32, gradLen)
	}
	return g
}

// attachBN switches every non-frozen batch-norm layer to deferred
// statistics: the forward pass records each batch's (mean, var) instead
// of folding them into the running estimates, and the runner replays
// every group member's statistics in batch order after the reduce —
// running statistics are checkpoint state, so they must follow the
// deterministic group order, not this rank's private execution order.
func (g *groupRunner) attachBN(net nn.Module) {
	net.Visit(func(m nn.Module) {
		if bn, ok := m.(*nn.BatchNorm2D); ok && !bn.Frozen {
			bn.DeferStats = true
			g.bns = append(g.bns, bn)
			g.statLen += 2 * bn.C
		}
	})
}

func (g *groupRunner) detachBN() {
	for _, bn := range g.bns {
		bn.DeferStats = false
	}
}

// flatten copies the accumulated parameter gradients into dst in
// net.Params() order — stable across ranks because every rank builds the
// identical module tree.
func (g *groupRunner) flatten(dst []float32) {
	o := 0
	for _, p := range g.params {
		copy(dst[o:], p.Grad.Data)
		o += len(p.Grad.Data)
	}
}

func (g *groupRunner) unflatten(src []float32) {
	o := 0
	for _, p := range g.params {
		copy(p.Grad.Data, src[o:o+len(p.Grad.Data)])
		o += len(p.Grad.Data)
	}
}

// gatherStats snapshots the deferred batch-norm statistics the last
// forward pass recorded, in layer order.
func (g *groupRunner) gatherStats() []float32 {
	if g.statLen == 0 {
		return nil
	}
	out := make([]float32, 0, g.statLen)
	for _, bn := range g.bns {
		out = append(out, bn.LastMean...)
		out = append(out, bn.LastVar...)
	}
	return out
}

// replayStats folds one batch's broadcast statistics into the running
// estimates on this rank.
func (g *groupRunner) replayStats(stats []float32) error {
	if len(stats) != g.statLen {
		return fmt.Errorf("train: batch-norm stats have %d values, model wants %d (mixed architectures in one group?)",
			len(stats), g.statLen)
	}
	o := 0
	for _, bn := range g.bns {
		bn.ApplyStats(stats[o:o+bn.C], stats[o+bn.C:o+2*bn.C])
		o += 2 * bn.C
	}
	return nil
}

// epoch runs one epoch group-synchronously and returns the epoch
// metrics, which are identical on every rank: they are folded from the
// broadcast per-batch metadata in batch order, not from local batches.
// rollback reports that a bad batch under NaNRollback ended the epoch
// early, before its group's optimizer step; every rank reads the same
// Bad flag from the same reduce, so all of them return it together.
func (g *groupRunner) epoch(net nn.Module, ds *dataset.Dataset, opt *SGD, opts Options,
	epoch int, batches [][]int, step *int64, check bool) (epochLoss float64, correct, seen int, rollback bool, err error) {
	for gi := 0; gi < len(batches); gi += g.G {
		gs := g.G
		if rest := len(batches) - gi; rest < gs {
			gs = rest // tail group
		}
		sp := telemetry.StartSpan("train.step")
		var t0 time.Time
		if telemetry.Enabled() {
			t0 = time.Now()
		}

		// Compute this rank's shard of the group: isolated per-batch
		// gradients, metrics and deferred batch-norm statistics.
		g.locals = g.locals[:0]
		vecIdx := 0
		for j := g.rank; j < gs; j += g.world {
			global := gi + j
			idx := batches[global]
			x, y := ds.Batch(idx)
			if opts.Augment != nil {
				// Seed by global batch position so the augmentation a
				// batch receives is shard-invariant.
				opts.Augment.SeedBatch(epoch, global)
				x = opts.Augment.Apply(x)
			}
			loss, logits, finite := forwardBackward(net, x, y, g.params, check)
			bg := dist.BatchGrad{Index: j, Loss: loss, Seen: int32(len(idx))}
			if !finite {
				mNaNEvents.Inc()
				bg.Bad = true
			} else {
				pred := logits.ArgmaxRows()
				for i, p := range pred {
					if p == y[i] {
						bg.Correct++
					}
				}
				vec := g.vecs[vecIdx]
				vecIdx++
				g.flatten(vec)
				bg.Grad = vec
				for _, p := range g.params {
					p.ZeroGrad()
				}
			}
			bg.Stats = g.gatherStats()
			g.locals = append(g.locals, bg)
		}

		metas, rerr := g.red.Reduce(*step, gs, g.locals, g.sum)
		if rerr != nil {
			sp.End()
			return epochLoss, correct, seen, false, fmt.Errorf("train: gradient reduce at epoch %d: %w", epoch+1, rerr)
		}

		// Replay the group's bookkeeping in batch order on every rank:
		// batch-norm running statistics (for all batches — the forward
		// pass ran even for bad ones), NaN policy, and epoch metrics.
		anyGood := false
		var groupLoss float64
		goodN := 0
		for i := range metas {
			m := &metas[i]
			if g.statLen > 0 {
				if serr := g.replayStats(m.Stats); serr != nil {
					sp.End()
					return epochLoss, correct, seen, false, serr
				}
			}
			if m.Bad {
				switch opts.NaNPolicy {
				case NaNSkip:
					mSkippedSteps.Inc()
					if opts.Log != nil {
						fmt.Fprintf(opts.Log, "epoch %d: non-finite batch %d skipped\n", epoch+1, gi+m.Index)
					}
					continue
				case NaNRollback:
					sp.End()
					return epochLoss, correct, seen, true, nil
				default: // NaNAbort
					sp.End()
					return epochLoss, correct, seen, false,
						fmt.Errorf("train: non-finite loss or gradient at epoch %d (batch %d): aborting; last checkpoint is intact",
							epoch+1, gi+m.Index)
				}
			}
			epochLoss += float64(m.Loss) * float64(m.Seen)
			correct += int(m.Correct)
			seen += int(m.Seen)
			groupLoss += float64(m.Loss)
			goodN++
			anyGood = true
		}

		if anyGood {
			g.unflatten(g.sum)
			if opts.ClipNorm > 0 && clipGradNorm(g.params, opts.ClipNorm) {
				mGradClips.Inc()
			}
			opt.Step(g.params)
			*step++
			if opts.StepHook != nil {
				opts.StepHook(*step)
			}
			if telemetry.Enabled() {
				mTrainSteps.Inc()
				mStepMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
				gTrainLoss.Set(groupLoss / float64(goodN))
			}
		}
		sp.End()
	}
	return epochLoss, correct, seen, false, nil
}
