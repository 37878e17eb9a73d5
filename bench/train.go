package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

const (
	trainGroup = 4  // sync group G: global batches folded into each optimizer step
	trainBatch = 16 // samples per batch
)

// fleet is resnet20-train-dp2's two data-parallel workers, both in this
// process, joined through the elastic membership layer over one loopback
// TCP link with heartbeats on.
type fleet struct {
	coord  *dist.ElasticCoordinator
	worker *dist.ElasticWorker
	groups [2]*dist.Group
}

func joinFleet() (*fleet, error) {
	coord, err := dist.ElasticListen("127.0.0.1:0", 2, dist.ElasticOptions{})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord, worker: dist.NewElasticWorker(coord.Addr(), 2, dist.ElasticOptions{})}
	type joined struct {
		g   *dist.Group
		err error
	}
	ch := make(chan joined, 1)
	go func() {
		g, err := f.worker.Join()
		ch <- joined{g, err}
	}()
	g0, err := coord.Join()
	j := <-ch
	if err == nil {
		err = j.err
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("joining the training fleet: %w", err)
	}
	f.groups = [2]*dist.Group{g0, j.g}
	return f, nil
}

// close aborts both members' groups and closes the listener.
func (f *fleet) close() {
	f.worker.Close() //nolint:errcheck // always nil
	f.coord.Close()  //nolint:errcheck // the run is over; nothing to recover
}

func fitOptions(seed int64, red dist.GradReducer) train.Options {
	return train.Options{Epochs: 1, BatchSize: trainBatch, LR: 0.02, Momentum: 0.9, Decay: 1e-4,
		Seed: seed, GroupSize: trainGroup, Reducer: red}
}

// timedReducer times every Reduce call from outside the reducer.
type timedReducer struct {
	dist.GradReducer
	ms []float64
}

func (t *timedReducer) Reduce(step int64, groupSize int, local []dist.BatchGrad, sum []float32) ([]dist.BatchGrad, error) {
	start := time.Now()
	metas, err := t.GradReducer.Reduce(step, groupSize, local, sum)
	t.ms = append(t.ms, msSince(start))
	return metas, err
}

// fitRun is one timed data-parallel fit.
type fitRun struct {
	wall    float64      // s
	samples int          // samples trained, over both workers
	steps   []float64    // ms between consecutive StepHook calls on rank 0
	compute []float64    // the same, minus the reduce time inside the step
	reduce  [2][]float64 // ms per Reduce call, per rank
	hooks   int          // optimizer steps rank 0 completed
}

// fit trains nets (one per rank) an epoch at a time until budget is
// nearly spent, always at least one epoch. afterStep, when set, runs on
// rank 0 after every step outside the step timing.
func (f *fleet) fit(nets [2]nn.Module, ds *dataset.Dataset, budget time.Duration, seed int64, afterStep func()) (*fitRun, error) {
	reds := [2]*timedReducer{{GradReducer: dist.NewReducer(f.groups[0])}, {GradReducer: dist.NewReducer(f.groups[1])}}
	fr := &fitRun{}
	var last time.Time
	reduced := 0 // rank 0's Reduce calls at the last hook
	hook := func(int64) {
		if !last.IsZero() {
			step := msSince(last)
			var red float64
			for _, v := range reds[0].ms[reduced:] {
				red += v
			}
			fr.steps = append(fr.steps, step)
			fr.compute = append(fr.compute, step-red)
		}
		fr.hooks++
		if afterStep != nil {
			afterStep()
		}
		last, reduced = time.Now(), len(reds[0].ms)
	}
	// Rank 0 decides after each epoch whether both ranks run another.
	more := make(chan bool, 1)
	var errs [2]error
	epochs := 0
	var wg sync.WaitGroup
	start := time.Now()
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for epoch := 0; ; epoch++ {
				opts := fitOptions(seed+int64(epoch), reds[rank])
				if rank == 0 {
					opts.StepHook, last = hook, time.Time{}
				}
				epochStart := time.Now()
				if _, err := train.Fit(nets[rank], ds, opts); err != nil {
					errs[rank] = err
					// Unblock the peer, which is waiting in a reduce.
					f.groups[rank].Abort(err.Error())
				}
				if rank == 1 {
					if !<-more || errs[1] != nil {
						return
					}
					continue
				}
				epochs++
				next := errs[0] == nil && time.Since(start)+time.Since(epochStart)/2 < budget
				more <- next
				if !next {
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	fr.wall = time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("data-parallel fit: %w", err)
		}
	}
	fr.samples = epochs * ds.Len()
	fr.reduce = [2][]float64{reds[0].ms, reds[1].ms}
	return fr, nil
}

// runTrain runs resnet20-train-dp2: QAT of a narrow ResNet-20 by two
// workers with sync group G=4 at batch 16.
func runTrain(r *run) error {
	cfg := models.Config{Classes: 10, Scale: r.sz.trainScale, QATBits: 4, Seed: 1}
	ds := dataset.SyntheticImages(10, r.sz.trainImages, 3, 32, 32, dataSeed(r.seed))
	var (
		fl   *fleet
		nets [2]nn.Module
		err  error
	)
	setup := make([]float64, r.sz.setupReps)
	for i := range setup {
		if fl != nil {
			fl.close()
		}
		start := time.Now()
		if fl, err = joinFleet(); err != nil {
			return err
		}
		if nets, err = buildPair(cfg); err != nil {
			fl.close()
			return err
		}
		setup[i] = time.Since(start).Seconds()
	}
	defer fl.close()
	r.set("setup_s", median(setup))

	heap := startHeapPeak()
	fr, err := fl.fit(nets, ds, r.length(), r.seed, nil)
	r.set("heap_live_peak_mb", heap.end())
	if err != nil {
		return err
	}
	r.chk.ops(fr.hooks)
	r.chk.expect(len(fr.reduce[0]) == fr.hooks, fmt.Sprintf("%d reduces for %d steps", len(fr.reduce[0]), fr.hooks))
	throughput := float64(fr.samples) / fr.wall
	r.set("throughput_per_s", throughput)
	r.set("latency_ms_p50", median(fr.steps))
	r.note("latency_ms_p90", quantile(fr.steps, 0.9), "ms")
	r.note("samples.steps", float64(len(fr.steps)), "count")

	if r.traced {
		if err := traceTrain(r, fl, nets, ds, throughput); err != nil {
			return err
		}
	}
	return checkFit(r, fl, cfg, ds.Subset(r.sz.checkImages))
}

func buildPair(cfg models.Config) ([2]nn.Module, error) {
	var nets [2]nn.Module
	for i := range nets {
		net, err := models.Build("resnet20", cfg)
		if err != nil {
			return nets, err
		}
		nets[i] = net
	}
	return nets, nil
}

// traceTrain is the traced quarter of a resnet20-train-dp2 run: the same
// fit continued with the program's spans recorded, drained after every
// step.
func traceTrain(r *run, fl *fleet, nets [2]nn.Module, ds *dataset.Dataset, untraced float64) error {
	stop := r.spans.start()
	var sums spanSums
	fr, err := fl.fit(nets, ds, r.length(), r.seed, func() { sums.add(r.spans.harvest()) })
	stop()
	if err != nil {
		return err
	}
	sums.add(r.spans.harvest())
	r.chk.ops(fr.hooks)
	r.chk.expect(len(fr.reduce[0]) == fr.hooks, fmt.Sprintf("%d reduces for %d steps", len(fr.reduce[0]), fr.hooks))
	var reduceMs float64
	for _, v := range fr.reduce[0] {
		reduceMs += v
	}
	r.set("train.step_ms_p50", median(fr.steps))
	r.set("train.step_ms_p95", quantile(fr.steps, 0.95))
	r.set("train.compute_ms_p50", median(fr.compute))
	r.set("dist.reduce_ms_p50", median(fr.reduce[0]))
	r.set("dist.reduce_ms_p95", quantile(fr.reduce[0], 0.95))
	r.set("dist.reduce_ms_p50.rank1", median(fr.reduce[1]))
	r.set("dist.reduce_share", reduceMs/1e3/fr.wall)
	r.set("dist.reduces", float64(len(fr.reduce[0])))
	r.set("tensor.gemm_ms.b16", sums.gemm/(float64(fr.samples)/trainBatch))
	r.set("trace.overhead_pct", 100*(untraced-float64(fr.samples)/fr.wall)/untraced)
	r.set("trace.dropped_spans", float64(r.spans.dropped))
	return nil
}

// checkFit checks the data-parallel invariant on a one-epoch fit over
// ds: two workers and one worker with the same sync group produce
// byte-identical parameters.
func checkFit(r *run, fl *fleet, cfg models.Config, ds *dataset.Dataset) error {
	nets, err := buildPair(cfg)
	if err != nil {
		return err
	}
	if _, err := fl.fit(nets, ds, 0, r.seed, nil); err != nil {
		return err
	}
	one, err := models.Build("resnet20", cfg)
	if err != nil {
		return err
	}
	if _, err := train.Fit(one, ds, fitOptions(r.seed, dist.Local{})); err != nil {
		return err
	}
	want, err := saved(one)
	if err != nil {
		return err
	}
	for rank, net := range nets {
		got, err := saved(net)
		if err != nil {
			return err
		}
		r.chk.expect(bytes.Equal(got, want), fmt.Sprintf("rank %d parameters differ from the 1-worker fit", rank))
	}
	return nil
}

func saved(m nn.Module) ([]byte, error) {
	var buf bytes.Buffer
	err := nn.Save(&buf, m)
	return buf.Bytes(), err
}
