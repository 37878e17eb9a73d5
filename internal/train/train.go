// Package train provides the SGD optimizer and training/evaluation loops
// used to produce the trained (and quantization-aware-trained) networks
// that all of the paper's experiments run on, plus the crash-safety
// machinery around them: periodic checksummed checkpoints, exact resume,
// and numerical-health guards that keep a NaN from being trained through.
package train

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

var (
	mTrainSteps  = telemetry.GetCounter("train.steps")
	mTrainEpochs = telemetry.GetCounter("train.epochs")
	mStepMs      = telemetry.GetHistogram("train.step_ms",
		telemetry.ExpBuckets(1, 2, 12)) // 1ms .. 2s
	mEpochMs = telemetry.GetHistogram("train.epoch_ms",
		telemetry.ExpBuckets(100, 2, 12)) // 0.1s .. 200s
	gTrainLoss = telemetry.GetGauge("train.loss")
	gTrainAcc  = telemetry.GetGauge("train.acc")
	gTrainLR   = telemetry.GetGauge("train.lr")

	mNaNEvents    = telemetry.GetCounter("train.nan_events")
	mSkippedSteps = telemetry.GetCounter("train.nan_skipped_steps")
	mRollbacks    = telemetry.GetCounter("train.nan_rollbacks")
	mGradClips    = telemetry.GetCounter("train.grad_clips")
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	vel map[*nn.Param]*tensor.Tensor
}

// NewSGD builds an optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		vel: make(map[*nn.Param]*tensor.Tensor)}
}

// Step applies one update to every parameter from its accumulated gradient
// and zeroes the gradients.
func (o *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		v, ok := o.vel[p]
		if !ok {
			v = tensor.New(p.W.Shape...)
			o.vel[p] = v
		}
		wd := float32(0)
		if p.Decay {
			wd = o.WeightDecay
		}
		for i := range p.W.Data {
			g := p.Grad.Data[i] + wd*p.W.Data[i]
			v.Data[i] = o.Momentum*v.Data[i] - o.LR*g
			p.W.Data[i] += v.Data[i]
		}
		p.ZeroGrad()
	}
}

// ExportState returns name-keyed copies of the momentum buffers for the
// given parameters, for checkpointing. Parameters that have not yet
// taken a step export an explicit zero buffer rather than being omitted:
// ImportState resets absent names, so an omission would make "never
// stepped" and "missing from the checkpoint" indistinguishable and let a
// mid-run elastic resume silently zero a late-activating parameter's
// velocity while the uninterrupted run kept it.
func (o *SGD) ExportState(params []*nn.Param) (map[string][]float32, error) {
	out := make(map[string][]float32, len(params))
	for _, p := range params {
		if _, dup := out[p.Name]; dup {
			return nil, fmt.Errorf("train: duplicate parameter name %q in optimizer state", p.Name)
		}
		if v, ok := o.vel[p]; ok {
			out[p.Name] = append([]float32(nil), v.Data...)
		} else {
			out[p.Name] = make([]float32, p.W.Len())
		}
	}
	return out, nil
}

// ImportState restores momentum buffers previously produced by
// ExportState. Names absent from the map reset to zero velocity; a
// length mismatch is an error (the checkpoint belongs to a different
// architecture).
func (o *SGD) ImportState(params []*nn.Param, state map[string][]float32) error {
	for _, p := range params {
		src, ok := state[p.Name]
		if !ok {
			delete(o.vel, p)
			continue
		}
		if len(src) != p.W.Len() {
			return fmt.Errorf("train: momentum buffer %q has %d values, parameter wants %d",
				p.Name, len(src), p.W.Len())
		}
		v, ok := o.vel[p]
		if !ok {
			v = tensor.New(p.W.Shape...)
			o.vel[p] = v
		}
		copy(v.Data, src)
	}
	return nil
}

// finite32 reports whether v is neither NaN nor ±Inf.
func finite32(v float32) bool {
	// NaN is the only value unequal to itself; float32 overflow is ±Inf.
	return v == v && v <= math.MaxFloat32 && v >= -math.MaxFloat32
}

// gradsFinite scans every accumulated gradient for NaN/Inf.
func gradsFinite(params []*nn.Param) bool {
	for _, p := range params {
		for _, g := range p.Grad.Data {
			if !finite32(g) {
				return false
			}
		}
	}
	return true
}

// clipGradNorm scales all gradients so their global L2 norm is at most
// clip, returning whether clipping fired.
func clipGradNorm(params []*nn.Param, clip float32) bool {
	var sumsq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sumsq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sumsq)
	if norm <= float64(clip) || norm == 0 {
		return false
	}
	scale := float32(float64(clip) / norm)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= scale
		}
	}
	return true
}

// forwardBackward runs the forward pass, loss and backward pass for one
// batch, leaving the batch's gradient accumulated in params. When check
// is true the loss and gradients are screened for NaN/Inf and finite
// reports the outcome: a bad loss skips the backward pass, a bad
// gradient is zeroed — in both cases params hold no usable gradient.
func forwardBackward(net nn.Module, x *tensor.Tensor, y []int, params []*nn.Param,
	check bool) (loss float32, logits *tensor.Tensor, finite bool) {
	logits = net.Forward(x, true)
	loss, grad := nn.SoftmaxCE(logits, y)
	if check && !finite32(loss) {
		return loss, logits, false
	}
	net.Backward(grad)
	if check && !gradsFinite(params) {
		for _, p := range params {
			p.ZeroGrad()
		}
		return loss, logits, false
	}
	return loss, logits, true
}

// Step runs one training iteration — forward, loss, backward, optimizer
// update — on a single batch and returns the batch loss and logits. It
// is the per-batch reference Fit's group loop is pinned against, and the
// unit benchmarks use to measure steady-state QAT step throughput (no
// health screening on this path).
func Step(net nn.Module, x *tensor.Tensor, y []int, opt *SGD, params []*nn.Param) (float32, *tensor.Tensor) {
	sp := telemetry.StartSpan("train.step")
	defer sp.End()
	var t0 time.Time
	if telemetry.Enabled() {
		t0 = time.Now()
	}
	loss, logits, _ := forwardBackward(net, x, y, params, false)
	opt.Step(params)
	if telemetry.Enabled() {
		mTrainSteps.Inc()
		mStepMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		gTrainLoss.Set(float64(loss))
	}
	return loss, logits
}

// NaNPolicy selects how Fit reacts when a batch produces a NaN/Inf loss
// or gradient.
type NaNPolicy int

const (
	// NaNAbort (the default) stops training with an error. Nothing is
	// trained through; the last checkpoint on disk is intact.
	NaNAbort NaNPolicy = iota
	// NaNSkip discards the poisoned batch — gradients are zeroed, no
	// optimizer update — and continues with the next batch.
	NaNSkip
	// NaNRollback restores the state at the last completed epoch
	// (in-memory snapshot), halves the learning rate and replays from
	// that epoch. After MaxRollbacks restorations it aborts. In a fleet
	// every rank sees the same bad batch in the reduced metadata at the
	// same step, so all ranks roll back together.
	NaNRollback
	// NaNIgnore preserves the legacy behavior: no screening at all.
	NaNIgnore
)

// ParseNaNPolicy maps CLI-friendly names to policies.
func ParseNaNPolicy(s string) (NaNPolicy, error) {
	switch s {
	case "abort", "":
		return NaNAbort, nil
	case "skip":
		return NaNSkip, nil
	case "rollback":
		return NaNRollback, nil
	case "ignore":
		return NaNIgnore, nil
	}
	return 0, fmt.Errorf("train: unknown NaN policy %q (want abort, skip, rollback or ignore)", s)
}

// Options configures a training run.
type Options struct {
	Epochs    int
	BatchSize int
	LR        float32
	Momentum  float32
	Decay     float32
	Seed      int64
	// LRDropEvery halves the learning rate every this many epochs
	// (0 disables the schedule).
	LRDropEvery int
	// Augment, when set, applies training-time augmentation to every
	// batch (random crop / flip). Its stream is re-seeded per epoch from
	// (its seed, epoch) so resumed runs replay identical augmentations.
	Augment *dataset.Augmenter
	// Log receives progress lines; nil silences logging.
	Log io.Writer

	// CkptPath, when non-empty, enables durable checkpointing: the full
	// training state (model, momentum, RNG identity, progress) is written
	// atomically to this path every CkptEvery epochs and after the final
	// epoch, keeping a rotated last-good copy at CkptPath+".prev".
	CkptPath string
	// CkptEvery is the epoch interval between saves (default 1 when
	// CkptPath is set).
	CkptEvery int
	// Resume loads CkptPath (falling back to the last-good copy) before
	// training and continues from the recorded epoch. Resuming with a
	// different Seed than the checkpoint's is an error. When neither
	// checkpoint file exists yet the run starts fresh.
	Resume bool
	// NaNPolicy selects the reaction to NaN/Inf losses or gradients
	// (default NaNAbort).
	NaNPolicy NaNPolicy
	// MaxRollbacks caps NaNRollback restorations before aborting
	// (default 3).
	MaxRollbacks int
	// ClipNorm, when positive, rescales gradients so their global L2
	// norm never exceeds it.
	ClipNorm float32

	// Reducer, when set, runs the fit as one worker of a data-parallel
	// fleet: this rank computes the batches of the seed-keyed shuffle
	// whose group-local index i satisfies i % World == Rank, exchanges
	// per-batch gradients through the reducer before every optimizer
	// step, and replays the group's batch-norm statistics and metrics in
	// global batch order — so every worker count produces bit-identical
	// parameters, history and checkpoints. nil means dist.Local{}, a
	// fleet of one. Fit does not close the reducer; its lifecycle belongs
	// to the caller. Only rank 0 writes checkpoints.
	Reducer dist.GradReducer
	// StepHook, when set, runs after every completed optimizer step with
	// the new step count. It exists for test orchestration (the chaos
	// harness kills a worker at an exact step) and must not mutate
	// training state.
	StepHook func(step int64)
	// GroupSize is the number of global batches folded into each
	// optimizer step. It — not the worker count — defines the training
	// trajectory: runs with equal GroupSize are bit-identical for any
	// number of workers. 0 means the reducer's world size (1 with no
	// reducer: one batch per step); on resume, 0 adopts the checkpoint's
	// recorded group size.
	GroupSize int
}

// History records per-epoch training metrics.
type History struct {
	Loss     []float32
	TrainAcc []float64
}

// snapshot is the in-memory NaNRollback state: a deep copy of everything
// a checkpoint holds, so rollback works even without a CkptPath.
type snapshot struct {
	epoch int   // completed epochs at snapshot time
	step  int64 // completed optimizer steps
	lr    float32
	model map[string][]float32
	opt   map[string][]float32
	loss  []float32
	acc   []float64
}

func takeSnapshot(net nn.Module, opt *SGD, params []*nn.Param, epoch int, step int64, hist *History) (*snapshot, error) {
	state, err := nn.StateTensors(net)
	if err != nil {
		return nil, err
	}
	model := make(map[string][]float32, len(state))
	for k, v := range state {
		model[k] = append([]float32(nil), v...)
	}
	optState, err := opt.ExportState(params)
	if err != nil {
		return nil, err
	}
	return &snapshot{
		epoch: epoch, step: step, lr: opt.LR,
		model: model, opt: optState,
		loss: append([]float32(nil), hist.Loss...),
		acc:  append([]float64(nil), hist.TrainAcc...),
	}, nil
}

func (s *snapshot) restore(net nn.Module, opt *SGD, params []*nn.Param, hist *History) error {
	if err := nn.ApplyState(net, s.model); err != nil {
		return err
	}
	if err := opt.ImportState(params, s.opt); err != nil {
		return err
	}
	opt.LR = s.lr
	hist.Loss = append(hist.Loss[:0], s.loss...)
	hist.TrainAcc = append(hist.TrainAcc[:0], s.acc...)
	return nil
}

// Fit trains net on ds and returns the loss/accuracy history. It fails
// (rather than panicking or training through garbage) on empty datasets,
// un-loadable resume checkpoints, and NaN events under the abort policy.
func Fit(net nn.Module, ds *dataset.Dataset, opts Options) (*History, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	if opts.LR == 0 {
		opts.LR = 0.05
	}
	if opts.Momentum == 0 {
		opts.Momentum = 0.9
	}
	if opts.CkptPath != "" && opts.CkptEvery <= 0 {
		opts.CkptEvery = 1
	}
	if opts.MaxRollbacks <= 0 {
		opts.MaxRollbacks = 3
	}
	if opts.Epochs > 0 && ds.Len() == 0 {
		return nil, fmt.Errorf("train: cannot fit on an empty dataset")
	}
	red := opts.Reducer
	if red == nil {
		red = dist.Local{}
	}
	world, rank := red.World(), red.Rank()
	if world < 1 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("train: reducer reports rank %d of world %d", rank, world)
	}
	if opts.GroupSize < 0 {
		return nil, fmt.Errorf("train: GroupSize must be >= 0 (got %d)", opts.GroupSize)
	}
	opt := NewSGD(opts.LR, opts.Momentum, opts.Decay)
	params := net.Params()
	hist := &History{}
	startEpoch := 0
	resumedGroup := 0
	var step int64

	if opts.Resume {
		if opts.CkptPath == "" {
			return nil, fmt.Errorf("train: Resume requires CkptPath")
		}
		if checkpointExists(opts.CkptPath) {
			ck, fromFallback, err := ckpt.LoadFile(opts.CkptPath)
			if err != nil {
				return nil, fmt.Errorf("train: resume: %w", err)
			}
			if ck.Progress == nil || ck.RNG == nil {
				return nil, fmt.Errorf("train: resume: %s is a model-only checkpoint, not a training checkpoint", opts.CkptPath)
			}
			if ck.RNG.Seed != opts.Seed {
				return nil, fmt.Errorf("train: resume: checkpoint was trained with seed %d, run has seed %d; resuming would diverge",
					ck.RNG.Seed, opts.Seed)
			}
			if err := nn.ApplyState(net, ck.Model); err != nil {
				return nil, fmt.Errorf("train: resume: %w", err)
			}
			if ck.Optimizer != nil {
				if err := opt.ImportState(params, ck.Optimizer); err != nil {
					return nil, fmt.Errorf("train: resume: %w", err)
				}
			}
			resumedGroup = ck.Progress.GroupSize
			if resumedGroup == 0 {
				// Pre-scale-out checkpoints recorded no group size; they
				// were trained one batch per step, i.e. group 1.
				resumedGroup = 1
			}
			if opts.GroupSize > 0 && opts.GroupSize != resumedGroup {
				return nil, fmt.Errorf("train: resume: checkpoint was trained with sync group %d, run requests %d; resuming would diverge",
					resumedGroup, opts.GroupSize)
			}
			startEpoch = ck.Progress.Epoch
			step = ck.Progress.Step
			opt.LR = ck.Progress.LR
			hist.Loss = append([]float32(nil), ck.Progress.Loss...)
			hist.TrainAcc = append([]float64(nil), ck.Progress.TrainAcc...)
			if opts.Log != nil {
				src := opts.CkptPath
				if fromFallback {
					src += ckpt.PrevSuffix + " (last-good fallback)"
				}
				fmt.Fprintf(opts.Log, "resumed from %s at epoch %d (lr=%.4f)\n", src, startEpoch, opt.LR)
			}
			if startEpoch >= opts.Epochs {
				return hist, nil
			}
		} else if opts.Log != nil {
			fmt.Fprintf(opts.Log, "no checkpoint at %s; starting fresh\n", opts.CkptPath)
		}
	}

	// Resolve the sync-group size G — the trajectory-defining invariant.
	// Explicit GroupSize wins; a resumed run adopts the checkpoint's
	// (validated against any explicit request above); otherwise G is the
	// worker count, so each worker contributes one batch per step. A
	// worker count above G only idles the surplus ranks, it never
	// changes the trajectory — that is the elastic-resume invariant.
	G := opts.GroupSize
	if resumedGroup > 0 {
		G = resumedGroup
	}
	if G == 0 {
		G = world
	}

	check := opts.NaNPolicy != NaNIgnore
	// Only a rollback ever reads the snapshot, so only that policy pays
	// for the deep copies.
	var lastGood *snapshot
	if opts.NaNPolicy == NaNRollback {
		var err error
		if lastGood, err = takeSnapshot(net, opt, params, startEpoch, step, hist); err != nil {
			return nil, err
		}
	}
	rollbacks := 0

	gr := newGroupRunner(params, red, world, rank, G)
	gr.attachBN(net)
	defer gr.detachBN()

	save := func(epochsDone int) error {
		// Rank 0 owns the checkpoint; every rank holds identical state,
		// so one durable copy is enough and writers never race.
		if opts.CkptPath == "" || rank != 0 {
			return nil
		}
		if epochsDone%opts.CkptEvery != 0 && epochsDone != opts.Epochs {
			return nil
		}
		optState, err := opt.ExportState(params)
		if err != nil {
			return err
		}
		model, err := nn.StateTensors(net)
		if err != nil {
			return err
		}
		return ckpt.SaveFile(opts.CkptPath, &ckpt.Checkpoint{
			Model:     model,
			Optimizer: optState,
			RNG:       &ckpt.RNGState{Seed: opts.Seed},
			Progress: &ckpt.Progress{
				Epoch: epochsDone, Step: step, LR: opt.LR,
				Loss: hist.Loss, TrainAcc: hist.TrainAcc,
				GroupSize: G,
			},
		})
	}

	for epoch := startEpoch; epoch < opts.Epochs; {
		spEpoch := telemetry.StartSpan("train.epoch")
		var tEpoch time.Time
		if telemetry.Enabled() {
			tEpoch = time.Now()
		}
		if opts.LRDropEvery > 0 && epoch > 0 && epoch%opts.LRDropEvery == 0 {
			opt.LR /= 2
		}
		batches := ds.Batches(opts.BatchSize, true, opts.Seed+int64(epoch))
		epochLoss, correct, seen, rollback, err := gr.epoch(net, ds, opt, opts, epoch, batches, &step, check)
		spEpoch.End()
		if err != nil {
			return hist, err
		}
		if rollback {
			rollbacks++
			if rollbacks > opts.MaxRollbacks {
				return hist, fmt.Errorf("train: non-finite loss or gradient persisted through %d rollbacks at epoch %d",
					opts.MaxRollbacks, epoch+1)
			}
			mRollbacks.Inc()
			if err := lastGood.restore(net, opt, params, hist); err != nil {
				return hist, fmt.Errorf("train: rollback: %w", err)
			}
			opt.LR /= 2
			step = lastGood.step
			epoch = lastGood.epoch
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "non-finite loss or gradient: rolled back to epoch %d, lr halved to %.5f\n",
					epoch, opt.LR)
			}
			continue
		}
		if seen == 0 {
			// Every batch of the epoch was skipped: nothing was learned
			// and nothing sane can be recorded.
			return hist, fmt.Errorf("train: epoch %d made no progress (all %d batches skipped as non-finite)",
				epoch+1, len(batches))
		}
		meanLoss := float32(epochLoss / float64(seen))
		acc := float64(correct) / float64(seen)
		hist.Loss = append(hist.Loss, meanLoss)
		hist.TrainAcc = append(hist.TrainAcc, acc)
		if telemetry.Enabled() {
			mTrainEpochs.Inc()
			mEpochMs.Observe(float64(time.Since(tEpoch)) / float64(time.Millisecond))
			gTrainLoss.Set(float64(meanLoss))
			gTrainAcc.Set(acc)
			gTrainLR.Set(float64(opt.LR))
		}
		epoch++
		if err := save(epoch); err != nil {
			return hist, fmt.Errorf("train: checkpointing after epoch %d: %w", epoch, err)
		}
		if lastGood != nil {
			if lastGood, err = takeSnapshot(net, opt, params, epoch, step, hist); err != nil {
				return hist, err
			}
		}
		// Logged after the checkpoint save so the epoch-completion line
		// is a reliable "this epoch is durable" signal (the crash-safety
		// smoke test kills the process on it).
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "epoch %d/%d loss=%.4f acc=%.3f lr=%.4f\n",
				epoch, opts.Epochs, meanLoss, acc, opt.LR)
		}
	}
	return hist, nil
}

// checkpointExists reports whether the checkpoint or its last-good copy
// is present on disk.
func checkpointExists(path string) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	_, err := os.Stat(path + ckpt.PrevSuffix)
	return err == nil
}

// MustFit is Fit for callers with no error path (tests, examples); it
// panics on failure.
func MustFit(net nn.Module, ds *dataset.Dataset, opts Options) *History {
	hist, err := Fit(net, ds, opts)
	if err != nil {
		panic(err)
	}
	return hist
}

// Evaluate returns top-1 accuracy of net on ds using inference mode.
// Degenerate inputs are handled without panicking: an empty dataset
// evaluates to 0 and a non-positive batch size falls back to the
// default.
func Evaluate(net nn.Module, ds *dataset.Dataset, batchSize int) float64 {
	return EvaluateForward(func(x *tensor.Tensor) *tensor.Tensor {
		return net.Forward(x, false)
	}, ds, batchSize)
}

// EvaluateForward is Evaluate over an arbitrary eval-mode forward function
// — e.g. a packed-domain infer.Session — for callers whose inference path
// bypasses Module.Forward.
func EvaluateForward(forward func(*tensor.Tensor) *tensor.Tensor, ds *dataset.Dataset, batchSize int) float64 {
	if batchSize <= 0 {
		batchSize = 64
	}
	var correct, seen int
	for _, idx := range ds.Batches(batchSize, false, 0) {
		x, y := ds.Batch(idx)
		logits := forward(x)
		pred := logits.ArgmaxRows()
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
		seen += len(idx)
	}
	if seen == 0 {
		return 0
	}
	return float64(correct) / float64(seen)
}
