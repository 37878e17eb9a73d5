// Command odq-train trains a model with DoReFa-style 4-bit quantization-
// aware training on a synthetic dataset and saves a checkpoint usable by
// odq-infer. With -ckpt-every it writes durable, checksummed training
// checkpoints (model + optimizer momentum + progress) atomically during
// the run, and -resume continues a killed run from the last checkpoint —
// bit-identically to a run that was never interrupted.
//
// Usage:
//
//	odq-train -model resnet20 -dataset c10 -epochs 14 -o resnet20.ckpt
//	odq-train -epochs 14 -ckpt-every 1 -o run.ckpt          # durable run
//	odq-train -epochs 14 -ckpt-every 1 -o run.ckpt -resume  # after a crash
//
// Data-parallel scale-out (-workers) runs the same trajectory across W
// workers: each step folds one sync group of -group batches, workers
// own a rank-strided share, and gradients are reduced deterministically
// before the optimizer steps. Runs with equal -group are bit-identical
// for ANY worker count, so a checkpoint from a 2-worker run resumes as
// 1 or 4 workers without changing the result:
//
//	odq-train -workers 2 -group 2 -o run.ckpt              # in-process
//	odq-train -workers 2 -rank 0 -coord :7000 -o run.ckpt  # coordinator
//	odq-train -workers 2 -rank 1 -coord host:7000          # joiner
//
// Over TCP, -rank 0 hosts the coordinator and is always group rank 0;
// any -rank >= 1 only marks a joiner, and the coordinator assigns
// joiners their group ranks in arrival order. Links carry heartbeats,
// so a worker that dies (SIGKILL, network partition) is detected within
// -hb-timeout; without -elastic that failure ends the run.
//
// -elastic turns the fleet self-healing: the survivors regroup at the
// smaller world size, roll back to the last durable checkpoint and
// continue — byte-identical to a run launched at the surviving worker
// count. Requires -coord, -ckpt-every and -o on a path every rank can
// read:
//
//	odq-train -elastic -workers 3 -rank 0 -coord :7000 -group 3 -ckpt-every 1 -o run.ckpt
//	odq-train -elastic -workers 3 -rank 1 -coord host:7000 -group 3 -ckpt-every 1 -o run.ckpt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/telemetry/olog"
	"repro/internal/telemetry/telemetryflag"
	"repro/internal/train"
)

// joinTimeout bounds how long a coordinator or joiner waits for the
// rest of the fleet before giving up with an error.
const joinTimeout = 60 * time.Second

// fail prints a one-line actionable message and exits 1 (2 for usage
// errors is reserved by flag itself).
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "odq-train: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	modelName := flag.String("model", "resnet20", "model: lenet5, resnet20, resnet56, vgg16, densenet")
	dsName := flag.String("dataset", "c10", "dataset: c10, c100 or mnist")
	scale := flag.Float64("width", 0.25, "channel width multiplier")
	qatBits := flag.Int("qat", 4, "QAT bit width (0 = float training)")
	samples := flag.Int("samples", 512, "training samples")
	epochs := flag.Int("epochs", 14, "training epochs")
	batch := flag.Int("batch", 16, "batch size")
	lr := flag.Float64("lr", 0.02, "learning rate")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "checkpoint output path (optional)")
	ckptEvery := flag.Int("ckpt-every", 0, "save a full training checkpoint to -o every N epochs (0 = only a model checkpoint at the end)")
	resume := flag.Bool("resume", false, "resume training from the checkpoint at -o (requires -ckpt-every)")
	nanPolicy := flag.String("nan-policy", "abort", "reaction to NaN/Inf loss or gradients: abort, skip, rollback, ignore")
	clipNorm := flag.Float64("clip-norm", 0, "clip gradients to this global L2 norm (0 = off)")
	killAfter := flag.Int("kill-after", 0, "SIGKILL self after N completed epochs (crash-safety testing; 0 = off)")
	workers := flag.Int("workers", 1, "data-parallel worker count (world size)")
	rank := flag.Int("rank", 0, "with -coord: 0 hosts the coordinator, any rank in [1,workers) joins it (group ranks are assigned in arrival order)")
	coord := flag.String("coord", "", "coordinator TCP address; rank 0 listens there, other ranks dial it (empty with -workers > 1 = all workers in-process)")
	group := flag.Int("group", 0, "sync group size: global batches folded per optimizer step (0 = workers, or the checkpoint's group on resume; equal -group means bit-identical runs at any worker count)")
	elastic := flag.Bool("elastic", false, "self-healing fleet: detect dead workers via heartbeats, regroup the survivors and resume from the last checkpoint (requires -coord, -ckpt-every, -o)")
	hbInterval := flag.Duration("hb-interval", 500*time.Millisecond, "TCP fleets: heartbeat send interval per link")
	hbTimeout := flag.Duration("hb-timeout", 5*time.Second, "TCP fleets: frame deadline; a link silent this long means the peer is gone")
	regroupTimeout := flag.Duration("regroup-timeout", 15*time.Second, "elastic: how long the coordinator waits for survivors to rejoin after a failure")
	killSteps := flag.Int("kill-after-steps", 0, "SIGKILL self after N optimizer steps (chaos testing; 0 = off)")
	tf := telemetryflag.Register(flag.CommandLine)
	flag.Parse()

	// Validate everything up front: a bad flag combination should cost
	// one line of stderr, not a panic fourteen epochs in.
	if *epochs < 1 {
		fail("-epochs must be >= 1 (got %d)", *epochs)
	}
	if *batch < 1 {
		fail("-batch must be >= 1 (got %d)", *batch)
	}
	if *samples < 1 {
		fail("-samples must be >= 1 (got %d)", *samples)
	}
	if *lr <= 0 {
		fail("-lr must be > 0 (got %g)", *lr)
	}
	if *scale <= 0 {
		fail("-width must be > 0 (got %g)", *scale)
	}
	if *qatBits < 0 || *qatBits > 16 {
		fail("-qat must be in [0,16] (got %d)", *qatBits)
	}
	if *ckptEvery < 0 {
		fail("-ckpt-every must be >= 0 (got %d)", *ckptEvery)
	}
	if (*ckptEvery > 0 || *resume) && *out == "" {
		fail("-ckpt-every/-resume need a checkpoint path: pass -o")
	}
	if *resume && *ckptEvery == 0 {
		fail("-resume needs periodic checkpoints: pass -ckpt-every (e.g. -ckpt-every 1)")
	}
	if *killAfter > 0 && *ckptEvery == 0 {
		fail("-kill-after without -ckpt-every would lose all progress: pass -ckpt-every")
	}
	if *workers < 1 {
		fail("-workers must be >= 1 (got %d)", *workers)
	}
	if *rank < 0 || *rank >= *workers {
		fail("-rank must be in [0,%d) (got %d)", *workers, *rank)
	}
	if *coord != "" && *workers < 2 {
		fail("-coord needs a fleet: pass -workers >= 2 (got %d)", *workers)
	}
	if *rank != 0 && *coord == "" {
		fail("-rank %d without -coord: non-zero ranks must dial a coordinator", *rank)
	}
	if *group < 0 {
		fail("-group must be >= 0 (got %d)", *group)
	}
	if *coord != "" && (*hbInterval <= 0 || *hbTimeout <= *hbInterval) {
		fail("-hb-timeout (%v) must exceed -hb-interval (%v), both > 0", *hbTimeout, *hbInterval)
	}
	if *elastic {
		if *coord == "" {
			fail("-elastic is for TCP fleets: pass -coord (in-process workers share one fate anyway)")
		}
		if *ckptEvery == 0 || *out == "" {
			fail("-elastic recovery resumes from durable checkpoints: pass -ckpt-every and -o on a path every rank can read")
		}
		if *group == 0 {
			// The sync-group size defines the trajectory and must not move
			// when the fleet shrinks; freeze it at the launch worker count.
			*group = *workers
		}
	}
	if *killSteps > 0 && *ckptEvery == 0 {
		fail("-kill-after-steps without -ckpt-every would lose all progress: pass -ckpt-every")
	}
	policy, err := train.ParseNaNPolicy(*nanPolicy)
	if err != nil {
		fail("%v", err)
	}

	telemetry.SetRole("train")
	telemetry.SetRank(*rank)
	flushTelemetry, err := tf.Activate()
	if err != nil {
		fail("%v", err)
	}

	classes := 10
	if *dsName == "c100" {
		classes = 100
	}
	var trainDS, testDS *dataset.Dataset
	switch *dsName {
	case "mnist":
		trainDS = dataset.MNISTLike(*samples, *seed+100)
		testDS = dataset.MNISTLike(*samples/4+1, *seed+200)
	case "c10", "c100":
		trainDS = dataset.SyntheticImages(classes, *samples, 3, 32, 32, *seed+100)
		testDS = dataset.SyntheticImages(classes, *samples/4+1, 3, 32, 32, *seed+200)
	default:
		fail("unknown dataset %q (want c10, c100 or mnist)", *dsName)
	}

	mcfg := models.Config{Classes: classes, Scale: *scale, QATBits: *qatBits, Seed: *seed}

	opts := train.Options{
		Epochs: *epochs, BatchSize: *batch, LR: float32(*lr),
		Momentum: 0.9, Decay: 1e-4, Seed: *seed,
		LRDropEvery: *epochs * 2 / 3, Log: os.Stderr,
		NaNPolicy: policy, ClipNorm: float32(*clipNorm),
		GroupSize: *group,
	}
	if *ckptEvery > 0 {
		opts.CkptPath = *out
		opts.CkptEvery = *ckptEvery
		opts.Resume = *resume
	}
	if *killAfter > 0 {
		// Crash-safety testing: die the hard way (no deferred cleanup, no
		// flushes) after the checkpoint for epoch N lands, by watching the
		// training log for the epoch-completion line.
		opts.Log = &killWatcher{out: os.Stderr, after: *killAfter}
	}
	if *killSteps > 0 {
		// Chaos testing with step precision: SIGKILL the instant optimizer
		// step N completes — mid-epoch, links still open, nothing flushed.
		n := int64(*killSteps)
		opts.StepHook = func(step int64) {
			if step >= n {
				syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck // self-kill
			}
		}
	}

	var net *nn.Sequential
	switch {
	case *coord != "":
		// TCP fleet: every process joins through the one membership layer.
		// The -rank 0 process hosts the coordinator and is always group
		// rank 0; the others take whatever rank their arrival order gives
		// them. Checkpoint paths must be on a filesystem all ranks can read
		// (rank 0 alone writes).
		eopts := dist.ElasticOptions{
			JoinTimeout:       joinTimeout,
			RegroupTimeout:    *regroupTimeout,
			HeartbeatInterval: *hbInterval,
			HeartbeatTimeout:  *hbTimeout,
		}
		var m dist.Membership
		if *rank == 0 {
			olog.Info("coordinator listening", "world", *workers, "coord", *coord, "elastic", *elastic)
			c, err := dist.ElasticListen(*coord, *workers, eopts)
			if err != nil {
				fail("%v", err)
			}
			m = c
		} else {
			m = dist.NewElasticWorker(*coord, *workers, eopts)
		}
		defer m.Close() //nolint:errcheck // process exit follows
		if *elastic {
			// Self-healing: recovery (regroup, rollback, resume) lives in
			// FitElastic.
			build := func() (nn.Module, error) { return models.Build(*modelName, mcfg) }
			o := opts
			if *rank != 0 {
				o.Log = nil // one progress stream, not W interleaved ones
			}
			_, trained, err := train.FitElastic(m, build, trainDS, o)
			if err != nil {
				failFit(err)
			}
			net = trained.(*nn.Sequential)
			break
		}
		// Fixed fleet: join once; a lost peer fails the run.
		g, err := m.Join()
		if err != nil {
			fail("%v", err)
		}
		telemetry.SetRank(g.Rank())
		n, err := models.Build(*modelName, mcfg)
		if err != nil {
			fail("%v", err)
		}
		opts.Reducer = dist.NewReducer(g)
		if _, err := train.Fit(n, trainDS, opts); err != nil {
			failFit(err)
		}
		net = n

	case *workers == 1:
		// Single worker. -group > 1 (or a resumed group checkpoint) folds
		// that many batches per step, which is bit-compatible with any
		// worker count at the same group size; Fit resolves that from
		// GroupSize and the checkpoint on its own.
		n, err := models.Build(*modelName, mcfg)
		if err != nil {
			fail("%v", err)
		}
		if _, err := train.Fit(n, trainDS, opts); err != nil {
			failFit(err)
		}
		net = n

	default:
		// Local fleet: every rank is a goroutine in this process over an
		// in-process loopback transport. Exercises the full reduce path
		// (sharding, deterministic fold, group barrier) without sockets.
		groups, err := dist.Loopback(*workers)
		if err != nil {
			fail("%v", err)
		}
		nets := make([]*nn.Sequential, *workers)
		for r := range nets {
			if nets[r], err = models.Build(*modelName, mcfg); err != nil {
				fail("%v", err)
			}
		}
		errs := make([]error, *workers)
		var wg sync.WaitGroup
		for r := 0; r < *workers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				o := opts
				o.Reducer = dist.NewReducer(groups[r])
				if r != 0 {
					o.Log = nil // one progress stream, not W interleaved ones
				}
				_, errs[r] = train.Fit(nets[r], trainDS, o)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				failFit(fmt.Errorf("worker %d: %w", r, err))
			}
		}
		net = nets[0] // all ranks hold bit-identical weights
	}

	// Evaluation and the final model write are rank 0's job; a joiner
	// rank's weights are bit-identical copies, so reporting them twice
	// would only be noise.
	if *rank != 0 {
		if err := flushTelemetry(); err != nil {
			fail("%v", err)
		}
		return
	}
	acc := train.Evaluate(net, testDS, 64)
	fmt.Printf("test accuracy: %.4f\n", acc)

	// Without periodic checkpointing, write a model checkpoint at the
	// end (legacy flow; odq-infer loads either kind).
	if *out != "" && *ckptEvery == 0 {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		if err := nn.Save(f, net); err != nil {
			f.Close()
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
	}
	if *out != "" {
		fmt.Printf("checkpoint written to %s\n", *out)
	}
	if err := flushTelemetry(); err != nil {
		fail("%v", err)
	}
}

// failFit exits with resume-mismatch guidance when the error calls for it.
func failFit(err error) {
	if strings.Contains(err.Error(), "resume") {
		fail("%v (was the checkpoint written by a run with different -model/-width/-qat, -seed or -group?)", err)
	}
	fail("%v", err)
}

// killWatcher tees training-progress lines and SIGKILLs the process
// after the Nth epoch-completion line — after Fit has written that
// epoch's checkpoint would be the next step, so the kill lands between
// epochs the way a real crash does. SIGKILL is not catchable: no
// deferred cleanup runs, which is the point.
type killWatcher struct {
	out    *os.File
	after  int
	epochs int
}

func (k *killWatcher) Write(p []byte) (int, error) {
	n, err := k.out.Write(p)
	if strings.Contains(string(p), "epoch ") && strings.Contains(string(p), "loss=") {
		k.epochs++
		if k.epochs >= k.after {
			// Flush nothing, clean up nothing: simulate the power cord.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
	return n, err
}
