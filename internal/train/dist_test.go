package train

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// distOpts is the shared recipe for the byte-equality tests: BN (so
// deferred-statistics replay is exercised), augmentation (so per-batch
// reseeding is exercised), an LR schedule and per-epoch checkpoints.
func distOpts(epochs int, ckptPath string) Options {
	return Options{
		Epochs: epochs, BatchSize: 16, LR: 0.05, Momentum: 0.9, Decay: 1e-4,
		Seed: 41, LRDropEvery: 2, CkptEvery: 1, CkptPath: ckptPath,
		Augment: dataset.NewAugmenter(2, true, 42),
	}
}

func assertStatesEqual(t *testing.T, label string, want, got map[string][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: tensor count %d vs %d", label, len(want), len(got))
	}
	for name, wv := range want {
		gv := got[name]
		if len(wv) != len(gv) {
			t.Fatalf("%s: tensor %s length mismatch", label, name)
		}
		for i := range wv {
			if math.Float32bits(wv[i]) != math.Float32bits(gv[i]) {
				t.Fatalf("%s: tensor %s[%d]: %v vs %v (not bit-identical)",
					label, name, i, wv[i], gv[i])
			}
		}
	}
}

// fitWorld trains one fleet of `world` workers over the loopback
// transport — every worker gets its own net (identical init), its own
// Fit goroutine and its own augmenter — and returns the per-rank nets
// and histories. All ranks share ckptPath; only rank 0 writes it.
func fitWorld(t *testing.T, world int, opts Options) ([]*nn.Sequential, []*History) {
	t.Helper()
	if world == 1 {
		// Single worker, same group-synchronous loop via the local reducer.
		o := opts
		o.Reducer = dist.Local{}
		o.Augment = dataset.NewAugmenter(2, true, 42)
		net := resumeNet(7)
		hist, err := Fit(net, resumeData(), o)
		if err != nil {
			t.Fatalf("world 1: %v", err)
		}
		return []*nn.Sequential{net}, []*History{hist}
	}
	groups, err := dist.Loopback(world)
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*nn.Sequential, world)
	hists := make([]*History, world)
	errs := make([]error, world)
	ds := resumeData()
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		nets[r] = resumeNet(7)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opts
			o.Reducer = dist.NewReducer(groups[r])
			o.Augment = dataset.NewAugmenter(2, true, 42)
			hists[r], errs[r] = Fit(nets[r], ds, o)
		}(r)
	}
	wg.Wait()
	for _, g := range groups {
		g.Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("world %d rank %d: %v", world, r, err)
		}
	}
	return nets, hists
}

// TestFitMatchesStepLoop pins Fit's one training loop to the per-batch
// reference: with no reducer (a fleet of one, G = 1) it must walk the
// exact float trajectory of a hand loop of Step over the seed-keyed
// shuffle with the same LR drops — weights, batch-norm running
// statistics and history all bit-identical. An explicit dist.Local{}
// reducer must write the very same checkpoint bytes as a nil one.
func TestFitMatchesStepLoop(t *testing.T) {
	dir := t.TempDir()
	ds := resumeData()
	opts := Options{
		Epochs: 3, BatchSize: 16, LR: 0.05, Momentum: 0.9, Decay: 1e-4,
		Seed: 41, LRDropEvery: 2, CkptEvery: 1, CkptPath: filepath.Join(dir, "nil.ckpt"),
	}
	fitted := resumeNet(7)
	hist, err := Fit(fitted, ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	ref := resumeNet(7)
	opt := NewSGD(opts.LR, opts.Momentum, opts.Decay)
	params := ref.Params()
	want := &History{}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		if epoch > 0 && epoch%opts.LRDropEvery == 0 {
			opt.LR /= 2
		}
		var lossSum float64
		var correct, seen int
		for _, idx := range ds.Batches(opts.BatchSize, true, opts.Seed+int64(epoch)) {
			x, y := ds.Batch(idx)
			loss, logits := Step(ref, x, y, opt, params)
			lossSum += float64(loss) * float64(len(idx))
			for i, p := range logits.ArgmaxRows() {
				if p == y[i] {
					correct++
				}
			}
			seen += len(idx)
		}
		want.Loss = append(want.Loss, float32(lossSum/float64(seen)))
		want.TrainAcc = append(want.TrainAcc, float64(correct)/float64(seen))
	}
	assertStatesEqual(t, "Fit vs Step loop", stateOf(t, ref), stateOf(t, fitted))
	if !reflect.DeepEqual(want, hist) {
		t.Fatalf("history mismatch:\nStep loop %+v\nFit       %+v", want, hist)
	}

	lo := opts
	lo.CkptPath = filepath.Join(dir, "local.ckpt")
	lo.Reducer = dist.Local{}
	if _, err := Fit(resumeNet(7), ds, lo); err != nil {
		t.Fatal(err)
	}
	nb, err := os.ReadFile(opts.CkptPath)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := os.ReadFile(lo.CkptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nb, lb) {
		t.Fatal("nil and dist.Local{} reducers must write bit-identical checkpoint files")
	}
}

// TestByteEqualAcrossWorkerCounts is the tentpole guarantee: with the
// sync-group size fixed at 4, fleets of 1, 2, 3 and 4 workers — and a
// 5-worker fleet where the surplus rank idles — all produce
// bit-identical weights on every rank, identical histories, and
// bit-identical checkpoint files.
func TestByteEqualAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	refOpts := distOpts(2, filepath.Join(dir, "w1.ckpt"))
	refOpts.GroupSize = 4
	refNets, refHists := fitWorld(t, 1, refOpts)
	refState := stateOf(t, refNets[0])
	refCkpt, err := os.ReadFile(refOpts.CkptPath)
	if err != nil {
		t.Fatal(err)
	}

	worlds := []int{2, 3, 4, 5}
	if testing.Short() {
		worlds = []int{2}
	}
	for _, world := range worlds {
		opts := distOpts(2, filepath.Join(dir, "w.ckpt"))
		opts.GroupSize = 4 // world 5 > G: rank 4 idles, trajectory unchanged
		nets, hists := fitWorld(t, world, opts)
		for r := 0; r < world; r++ {
			assertStatesEqual(t, "world "+string(rune('0'+world))+" rank "+string(rune('0'+r)),
				refState, stateOf(t, nets[r]))
			if !reflect.DeepEqual(refHists[0], hists[r]) {
				t.Fatalf("world %d rank %d: history mismatch:\nref %+v\ngot %+v",
					world, r, refHists[0], hists[r])
			}
		}
		ckptBytes, err := os.ReadFile(opts.CkptPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refCkpt, ckptBytes) {
			t.Fatalf("world %d: checkpoint file differs from the 1-worker reference", world)
		}
		os.Remove(opts.CkptPath)
		os.Remove(opts.CkptPath + ".prev")
	}
}

// TestElasticResume: a 2-worker run killed after 1 of 3 epochs must
// resume as 1 worker AND as 3 workers, each finishing bit-identical to
// an uninterrupted 1-worker run — worker count is an execution detail,
// not training state.
func TestElasticResume(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted 1-worker reference at G=2.
	refOpts := distOpts(3, filepath.Join(dir, "ref.ckpt"))
	refOpts.GroupSize = 2
	refNets, refHists := fitWorld(t, 1, refOpts)
	refState := stateOf(t, refNets[0])
	refCkpt, err := os.ReadFile(refOpts.CkptPath)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a 2-worker fleet trains 1 epoch (G defaults to world = 2)
	// and leaves a checkpoint — the "killed" run.
	partial := filepath.Join(dir, "partial.ckpt")
	fitWorld(t, 2, distOpts(1, partial))

	resumeAs := func(world int) {
		ckptCopy := filepath.Join(dir, "resume.ckpt")
		b, err := os.ReadFile(partial)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptCopy, b, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := distOpts(3, ckptCopy)
		opts.Resume = true
		// GroupSize deliberately left 0: the resumed run must adopt the
		// checkpoint's recorded sync group (2), whatever its world size.
		nets, hists := fitWorld(t, world, opts)
		for r := range nets {
			assertStatesEqual(t, "resume", refState, stateOf(t, nets[r]))
			if !reflect.DeepEqual(refHists[0], hists[r]) {
				t.Fatalf("resume as %d workers, rank %d: history mismatch:\nref %+v\ngot %+v",
					world, r, refHists[0], hists[r])
			}
		}
		finalCkpt, err := os.ReadFile(ckptCopy)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refCkpt, finalCkpt) {
			t.Fatalf("resume as %d workers: final checkpoint differs from uninterrupted reference", world)
		}
		os.Remove(ckptCopy)
		os.Remove(ckptCopy + ".prev")
	}

	resumeAs(1)
	if !testing.Short() {
		resumeAs(3)
	}
}

// TestResumeGroupSizeMismatchRejected: explicitly requesting a sync
// group different from the checkpoint's must fail — it would silently
// change the training trajectory.
func TestResumeGroupSizeMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g2.ckpt")
	opts := distOpts(1, path)
	opts.GroupSize = 2
	if _, err := Fit(resumeNet(7), resumeData(), opts); err != nil {
		t.Fatal(err)
	}
	bad := distOpts(2, path)
	bad.Resume = true
	bad.GroupSize = 3
	_, err := Fit(resumeNet(7), resumeData(), bad)
	if err == nil || !strings.Contains(err.Error(), "sync group") {
		t.Fatalf("group-size mismatch on resume: err = %v, want rejection", err)
	}
}

// sentinelPoison wraps a module and turns its training-mode forward
// output to NaN the fireAt-th time a batch holding the sentinel sample
// (first pixel == mark) passes through. The trigger is keyed on the data,
// not on a call count, so it fires on the same global batch whichever
// rank computes it; seen is shared by every rank of one run.
type sentinelPoison struct {
	nn.Module
	mark   float32
	fireAt int32
	seen   *atomic.Int32
}

func (p *sentinelPoison) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := p.Module.Forward(x, train)
	if !train {
		return out
	}
	per := len(x.Data) / x.Shape[0]
	for s := 0; s < x.Shape[0]; s++ {
		if x.Data[s*per] == p.mark && p.seen.Add(1) == p.fireAt {
			for i := range out.Data {
				out.Data[i] = float32(math.NaN())
			}
		}
	}
	return out
}

// TestNaNRollbackFleetMatchesSingle: NaNRollback is decided from the
// reduced Bad metadata, so a 2-worker fleet rolls back in lockstep and
// ends byte-identical to a single worker at the same sync group — same
// weights on every rank, same history, same checkpoint bytes, one
// restore per rank. The poison fires once, on the sentinel's batch in
// the second epoch, so the restore lands on the epoch-1 snapshot.
func TestNaNRollbackFleetMatchesSingle(t *testing.T) {
	const world, mark = 2, -1
	dir := t.TempDir()
	ds := resumeData()
	ds.X.Data[ds.X.Len()/ds.Len()*5] = mark // sample 5 is the sentinel
	opts := Options{
		Epochs: 3, BatchSize: 16, LR: 0.05, Momentum: 0.9, Decay: 1e-4,
		Seed: 41, GroupSize: 2, CkptEvery: 1, NaNPolicy: NaNRollback,
	}
	poisoned := func(seen *atomic.Int32) *nn.Sequential {
		net := resumeNet(7)
		net.Modules[0] = &sentinelPoison{Module: net.Modules[0], mark: mark, fireAt: 2, seen: seen}
		return net
	}
	rollbacks := telemetry.GetCounter("train.nan_rollbacks")
	telemetry.Enable()
	defer telemetry.Disable()

	var singleSeen atomic.Int32
	single := poisoned(&singleSeen)
	so := opts
	so.CkptPath = filepath.Join(dir, "single.ckpt")
	var singleLog bytes.Buffer
	so.Log = &singleLog
	before := rollbacks.Value()
	singleHist, err := Fit(single, ds, so)
	if err != nil {
		t.Fatalf("single worker: %v", err)
	}
	singleRollbacks := rollbacks.Value() - before
	if singleRollbacks != 1 {
		t.Fatalf("single worker rolled back %d times, want 1 (poison fired %d sentinel sightings)",
			singleRollbacks, singleSeen.Load())
	}

	groups, err := dist.Loopback(world)
	if err != nil {
		t.Fatal(err)
	}
	var fleetSeen atomic.Int32
	nets := make([]*nn.Sequential, world)
	hists := make([]*History, world)
	logs := make([]bytes.Buffer, world)
	errs := make([]error, world)
	before = rollbacks.Value()
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		nets[r] = poisoned(&fleetSeen)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opts
			o.CkptPath = filepath.Join(dir, "fleet.ckpt")
			o.Reducer = dist.NewReducer(groups[r])
			o.Log = &logs[r]
			hists[r], errs[r] = Fit(nets[r], ds, o)
		}(r)
	}
	wg.Wait()
	for _, g := range groups {
		g.Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("fleet rank %d: %v", r, err)
		}
	}
	// Both ranks share this process's registry: each counts its own
	// restore, exactly as many as the single worker did.
	if got := rollbacks.Value() - before; got != world*singleRollbacks {
		t.Fatalf("fleet counted %d rollbacks over %d ranks, want %d per rank", got, world, singleRollbacks)
	}

	want := stateOf(t, single)
	for r := 0; r < world; r++ {
		assertStatesEqual(t, fmt.Sprintf("fleet rank %d vs single", r), want, stateOf(t, nets[r]))
		if !reflect.DeepEqual(singleHist, hists[r]) {
			t.Fatalf("rank %d: history mismatch:\nsingle %+v\nfleet  %+v", r, singleHist, hists[r])
		}
		if n := strings.Count(logs[r].String(), "rolled back"); n != 1 {
			t.Fatalf("rank %d logged %d rollbacks, want 1:\n%s", r, n, logs[r].String())
		}
	}
	sb, err := os.ReadFile(so.CkptPath)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(filepath.Join(dir, "fleet.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, fb) {
		t.Fatal("fleet and single-worker rollback runs must write bit-identical checkpoints")
	}
}

// injectorNet builds a small BN net with a NaN injector spliced before
// the head, poisoning the forward pass after `after` batches.
func injectorNet(seed int64, after int) (*nn.Sequential, *faultinject.NaNInjector) {
	rng := tensor.NewRNG(seed)
	conv := nn.NewConv2D("c1", 3, 6, 3, 1, 1, false, rng)
	inj := faultinject.NewNaNInjector(conv, faultinject.InForward, after)
	net := nn.NewSequential("inj",
		inj,
		nn.NewBatchNorm2D("b1", 6),
		nn.NewReLU("r1"),
		nn.NewGlobalAvgPool2D("gap"),
		nn.NewLinear("fc", 6, 4, rng),
	)
	return net, inj
}

// TestGroupModeNaNSkip: a poisoned batch under the skip policy is
// dropped from the fold and training completes.
func TestGroupModeNaNSkip(t *testing.T) {
	net, inj := injectorNet(7, 2)
	hist, err := Fit(net, resumeData(), Options{
		Epochs: 1, BatchSize: 16, LR: 0.05, Seed: 41,
		Reducer: dist.Local{}, GroupSize: 2, NaNPolicy: NaNSkip,
	})
	if err != nil {
		t.Fatalf("skip policy must train through the poisoned batch: %v", err)
	}
	if inj.Injections() == 0 {
		t.Fatal("injector never fired; the test asserted nothing")
	}
	if len(hist.Loss) != 1 || math.IsNaN(float64(hist.Loss[0])) {
		t.Fatalf("bad history after skip: %+v", hist)
	}
}

// TestGroupModeNaNAbort: the default policy stops the fleet loudly.
func TestGroupModeNaNAbort(t *testing.T) {
	net, _ := injectorNet(7, 2)
	_, err := Fit(net, resumeData(), Options{
		Epochs: 1, BatchSize: 16, LR: 0.05, Seed: 41,
		Reducer: dist.Local{}, GroupSize: 2, NaNPolicy: NaNAbort,
	})
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("abort policy: err = %v, want non-finite abort", err)
	}
}

// TestSGDExportExplicitZeros: a parameter that has not stepped yet must
// export an explicit zero-velocity buffer, not be omitted — omission
// would be indistinguishable from "missing from the checkpoint" on an
// elastic resume.
func TestSGDExportExplicitZeros(t *testing.T) {
	stepped := nn.NewParam("a", tensor.NewFrom([]float32{1, 2}, 2), false)
	fresh := nn.NewParam("b", tensor.NewFrom([]float32{3, 4, 5}, 3), false)
	opt := NewSGD(0.1, 0.9, 0)
	stepped.Grad.Data[0] = 1
	opt.Step([]*nn.Param{stepped})

	st, err := opt.ExportState([]*nn.Param{stepped, fresh})
	if err != nil {
		t.Fatal(err)
	}
	zeros, ok := st["b"]
	if !ok {
		t.Fatal("never-stepped parameter missing from exported optimizer state")
	}
	if len(zeros) != 3 {
		t.Fatalf("zero-velocity buffer has %d values, want 3", len(zeros))
	}
	for i, v := range zeros {
		if v != 0 {
			t.Fatalf("zero-velocity buffer[%d] = %v", i, v)
		}
	}
}

// TestFitRejectsNegativeGroupSize covers the upfront option validation.
func TestFitRejectsNegativeGroupSize(t *testing.T) {
	if _, err := Fit(resumeNet(7), resumeData(), Options{
		Epochs: 1, BatchSize: 16, GroupSize: -1,
	}); err == nil {
		t.Fatal("negative GroupSize must be rejected")
	}
}
