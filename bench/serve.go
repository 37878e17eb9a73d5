package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	// serveThreshold realizes a sensitivity of about 0.24 on the LeNet
	// fixture.
	serveThreshold = 1.5
	// cycles is how many times the schedule repeats its three kinds of
	// load within one run, so each kind samples the host over the whole
	// run.
	cycles = 5
	// callers is the closed-loop client count: two full batches
	// outstanding, so one batch can fill while the other executes.
	callers = 32
	// chunk is how many consecutive closed-loop answers one rate sample
	// spans (about 0.1 s at the fixture's capacity).
	chunk = 256
	// The SLO a probed rate must meet: p99 from when each request was due,
	// no refused request, and this share of the sent requests answered by
	// the end of the probe plus the latency limit (so a growing backlog
	// fails it).
	sloP99Ms     = 25.0
	sloCompleted = 0.98
	// lateLimitMs is how far behind its schedule the generator may run
	// before the run's open-loop latencies are flagged: beyond it they
	// include the generator's own stalls.
	lateLimitMs = 5.0
	// The bisection probes' range and count.
	probeLo, probeHi = 125.0, 4000.0
	probes           = 6
)

// serveConfig is odq-serve's default serving configuration.
func serveConfig() serve.Config {
	return serve.Config{ModelName: "lenet5", InputC: 1, InputH: 28, InputW: 28,
		MaxBatch: 16, BatchDeadline: 2 * time.Millisecond, QueueDepth: 256}
}

// load is one kind of serving load, gathered over the slices that ran
// it.
type load struct {
	sent, refused, failed int
	completed             int       // open loop: answered within the SLO window
	lat                   []float64 // open loop: ms from due to answer
	rates                 []float64 // closed loop: answers per second over runs of chunk answers
	lateMax               float64   // open loop: ms the generator ran behind schedule, at most
	served, batches       int64
	breakdown             serve.LatencyBreakdown // over every slice of this load
}

func (l *load) meetsSLO() bool {
	return l.sent > 0 && l.refused == 0 && l.failed == 0 &&
		quantile(l.lat, 0.99) <= sloP99Ms && float64(l.completed) >= sloCompleted*float64(l.sent)
}

func (l *load) meanBatch() float64 {
	if l.batches == 0 {
		return 0
	}
	return float64(l.served) / float64(l.batches)
}

// schedule is one pass of lenet-serve's load: open loop at 250 and 500
// rps, and closed loop with callers clients.
type schedule struct {
	low, high, saturated load
}

// runServe runs lenet-serve: the LeNet fixture behind an in-process
// server with odq-serve's defaults, on the packed-INT4 pipeline.
func runServe(r *run) error {
	fx, err := r.fixture("lenet")
	if err != nil {
		return err
	}
	net := fx.net
	ds := dataset.MNISTLike(r.sz.heldOut, dataSeed(r.seed))
	per := 28 * 28
	inputs := make([][]float32, ds.Len())
	refs := make([][]float32, ds.Len())
	ref, err := infer.NewSession(net, "odq", infer.WithThreshold(serveThreshold))
	if err != nil {
		return err
	}
	for i := range inputs {
		inputs[i] = ds.X.Data[i*per : (i+1)*per]
		// The reference answer runs the plain module chain on the input
		// alone, so a served answer matching it shows both packed ==
		// module chain and batched == alone.
		refs[i] = append([]float32(nil), ref.Forward(tensor.NewFrom(inputs[i], 1, 1, 28, 28)).Data...)
	}

	var sess *infer.Session
	setup := make([]float64, r.sz.setupReps)
	for i := range setup {
		start := time.Now()
		sess, err = infer.NewSession(net, "odq", infer.WithThreshold(serveThreshold), infer.WithPackedDomain())
		if err != nil {
			return err
		}
		srv, err := serve.New(sess, serveConfig())
		if err != nil {
			return err
		}
		srv.Start()
		ch, err := srv.SubmitCtx(context.Background(), inputs[0], "")
		if err != nil {
			srv.Drain(10 * time.Second) //nolint:errcheck // already failing
			return fmt.Errorf("set-up request: %w", err)
		}
		res := <-ch
		setup[i] = time.Since(start).Seconds()
		r.chk.expect(res.Err == nil, fmt.Sprintf("set-up request failed: %v", res.Err))
		r.chk.sameLogits("set-up answer vs batch-1 module chain", res.Logits, refs[0])
		if err := srv.Drain(10 * time.Second); err != nil {
			return err
		}
	}
	r.set("setup_s", median(setup))

	heap := startHeapPeak()
	s, err := r.serveSchedule(sess, inputs, refs)
	r.set("heap_live_peak_mb", heap.end())
	if err != nil {
		return err
	}
	capacity := median(s.saturated.rates)
	r.set("throughput_per_s", capacity)
	r.set("latency_ms_p50", median(s.high.lat))
	r.note("latency_ms_p90", quantile(s.high.lat, 0.9), "ms")
	r.note("latency_ms_p99", quantile(s.high.lat, 0.99), "ms")
	r.note("latency_ms_p50.250rps", median(s.low.lat), "ms")
	r.note("latency_ms_p99.250rps", quantile(s.low.lat, 0.99), "ms")
	late := math.Max(s.low.lateMax, s.high.lateMax)
	r.set("loadgen.late_ms_max", late)
	if late > lateLimitMs {
		r.note("loadgen.late_flagged", 1, "count")
	}
	if !r.traced {
		return nil
	}

	best, err := r.maxRateAtSLO(sess, inputs, refs)
	if err != nil {
		return err
	}
	r.set("serve.max_rps_at_slo", best)
	stop := r.spans.start()
	t, err := r.serveSchedule(sess, inputs, refs)
	stop()
	if err != nil {
		return err
	}
	r.set("serve.queue_wait_ms_p50.500rps", t.high.breakdown.QueueWait.P50)
	r.set("serve.queue_wait_ms_p99.500rps", t.high.breakdown.QueueWait.P99)
	r.set("serve.collect_ms_p50.250rps", t.low.breakdown.Collect.P50)
	r.set("serve.execute_ms_p50.500rps", t.high.breakdown.Execute.P50)
	r.set("serve.scatter_ms_p50.500rps", t.high.breakdown.Scatter.P50)
	r.set("serve.mean_batch.250rps", t.low.meanBatch())
	r.set("serve.mean_batch.500rps", t.high.meanBatch())
	r.set("serve.rejected", float64(t.low.refused+t.high.refused+t.saturated.refused))
	r.set("loadgen.late_ms_max", math.Max(t.low.lateMax, t.high.lateMax))
	r.set("trace.overhead_pct", 100*(capacity-median(t.saturated.rates))/capacity)
	return tracePacked(r, net, ds)
}

// serveSchedule runs the schedule in slices: each of the cycles serves
// 250 rps, 500 rps and the closed loop for a third of the cycle each, on
// fresh servers over sess. The servers of one kind of load share a
// telemetry registry, so that its latency breakdown covers all of its
// slices. Every refused request counts as a failure.
func (r *run) serveSchedule(sess *infer.Session, inputs, refs [][]float32) (*schedule, error) {
	slice := r.length() / (3 * cycles)
	var s schedule
	kinds := []struct {
		l    *load
		rate float64 // 0: closed loop
		reg  *telemetry.Registry
	}{{&s.low, 250, telemetry.NewRegistry()}, {&s.high, 500, telemetry.NewRegistry()}, {&s.saturated, 0, telemetry.NewRegistry()}}
	for c := 0; c < cycles; c++ {
		for k, kind := range kinds {
			err := r.serveSlice(sess, kind.reg, int64(c*len(kinds)+k), kind.l, func(srv *serve.Server, rng *rand.Rand) {
				if kind.rate == 0 {
					closedLoop(srv, inputs, refs, slice, rng, &r.chk, kind.l)
				} else {
					openLoop(srv, inputs, refs, kind.rate, slice, rng, &r.chk, true, kind.l)
				}
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return &s, nil
}

// maxRateAtSLO bisects, in log space over [probeLo, probeHi] rps, for the
// highest open-loop rate that meets the SLO, and returns it (0 when no
// probe met it). A refusal here fails the probe, not the run.
func (r *run) maxRateAtSLO(sess *infer.Session, inputs, refs [][]float32) (float64, error) {
	d := r.length() / probes
	lo, hi, best := probeLo, probeHi, 0.0
	for i := 0; i < probes; i++ {
		mid := math.Sqrt(lo * hi)
		var l load
		err := r.serveSlice(sess, telemetry.NewRegistry(), int64(3*cycles+i), &l, func(srv *serve.Server, rng *rand.Rand) {
			openLoop(srv, inputs, refs, mid, d, rng, &r.chk, false, &l)
		})
		if err != nil {
			return 0, err
		}
		if l.meetsSLO() {
			lo, best = mid, mid
		} else {
			hi = mid
		}
	}
	return best, nil
}

// serveSlice runs one slice of load against a fresh server over sess,
// whose latency histograms live in reg, and folds the server's counters
// into l. The load's random stream derives from the run's seed and idx.
func (r *run) serveSlice(sess *infer.Session, reg *telemetry.Registry, idx int64, l *load,
	run func(*serve.Server, *rand.Rand)) error {
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)
	srv, err := serve.New(sess, serveConfig())
	if err != nil {
		return err
	}
	srv.Start()
	run(srv, rand.New(rand.NewSource(r.seed*64+idx)))
	st := srv.Stats()
	l.served += st.Served
	l.batches += st.Batches
	l.breakdown = srv.LatencyBreakdown()
	if err := srv.Drain(10 * time.Second); err != nil {
		return err
	}
	if r.spans != nil {
		r.spans.harvest()
	}
	return nil
}

// openLoop offers Poisson arrivals at rate for d into srv from one
// generator goroutine, while one receiver goroutine takes the answers in
// submission order (one replica answers first-in, first-out). Latency
// runs from when a request was due, so a stall in the generator or the
// server is charged to every request queued behind it.
func openLoop(srv *serve.Server, inputs, refs [][]float32, rate float64, d time.Duration,
	rng *rand.Rand, chk *checker, refusalFails bool, l *load) {
	var due []time.Duration
	var picks []int
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
		picks = append(picks, rng.Intn(len(inputs)))
	}
	l.sent += len(due)
	type flight struct {
		due time.Time
		idx int
		ch  <-chan serve.Result
	}
	flights := make(chan flight, len(due)) // one slot per request: the generator never waits
	start := time.Now()
	window := start.Add(d + time.Duration(sloP99Ms*float64(time.Millisecond)))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range flights {
			res := <-f.ch
			done := time.Now()
			if res.Err != nil {
				l.failed++
				chk.expect(false, "request failed: "+res.Err.Error())
				continue
			}
			l.lat = append(l.lat, float64(done.Sub(f.due))/float64(time.Millisecond))
			if !done.After(window) {
				l.completed++
			}
			chk.sameLogits("served answer vs batch-1 module chain", res.Logits, refs[f.idx])
		}
	}()
	for i, off := range due {
		at := start.Add(off)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		if late := msSince(at); late > l.lateMax {
			l.lateMax = late
		}
		ch, err := srv.SubmitCtx(context.Background(), inputs[picks[i]], "")
		if err != nil {
			l.refused++
			chk.expect(!refusalFails, "request refused: "+err.Error())
			continue
		}
		flights <- flight{due: at, idx: picks[i], ch: ch}
	}
	close(flights)
	wg.Wait()
}

// closedLoop runs callers clients against srv for d, each submitting its
// next request when its previous one is answered, and adds to l.rates
// the answers per second over each run of chunk consecutive answers. The
// median of those rates is the server's capacity; a stall of the host
// during one run of answers does not move it.
func closedLoop(srv *serve.Server, inputs, refs [][]float32, d time.Duration, rng *rand.Rand, chk *checker, l *load) {
	seeds := make([]int64, callers)
	for c := range seeds {
		seeds[c] = rng.Int63()
	}
	answered := make([][]time.Duration, callers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pick := rand.New(rand.NewSource(seeds[c]))
			for time.Now().Before(deadline) {
				idx := pick.Intn(len(inputs))
				ch, err := srv.SubmitCtx(context.Background(), inputs[idx], "")
				if err != nil {
					chk.expect(false, "request refused: "+err.Error())
					return
				}
				res := <-ch
				if res.Err != nil {
					chk.expect(false, "request failed: "+res.Err.Error())
					continue
				}
				answered[c] = append(answered[c], time.Since(start))
				chk.sameLogits("served answer vs batch-1 module chain", res.Logits, refs[idx])
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for _, ts := range answered {
		all = append(all, ts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for lo := 0; lo+chunk < len(all); lo += chunk {
		l.rates = append(l.rates, chunk/(all[lo+chunk]-all[lo]).Seconds())
	}
	if len(all) > 1 && len(all) <= chunk {
		l.rates = append(l.rates, float64(len(all)-1)/(all[len(all)-1]-all[0]).Seconds())
	}
}

// tracePacked times the packed-INT4 pipeline the server runs, called
// directly at batch 16 and batch 1, with the program's spans recorded.
func tracePacked(r *run, net nn.Module, ds *dataset.Dataset) error {
	b16, b1 := batchesOf(ds, r.seed)
	exec := core.NewExec(serveThreshold, core.WithProfiling())
	sess := infer.NewSessionFromExecutor(net, "odq", exec, true)
	if err := sess.EnablePackedDomain(); err != nil {
		return err
	}
	exec.Reset()
	sess.Forward(b16[0])
	reportProfiles(r, exec.Profiles(), 16, false)
	allocs, _ := allocsPerCall(r.sz.allocForward, func() { sess.Forward(b16[0]) })
	r.set("infer.packed_allocs_per_forward.b16", allocs)
	stop := r.spans.start()
	var sums spanSums
	t16, t1 := r.alternate(r.length()/4,
		func(i int) { sess.Forward(b16[i%len(b16)]) }, func(i int) { sess.Forward(b1[i%len(b1)]) },
		func() { sums.add(r.spans.harvest()) }, func() { r.spans.harvest() })
	stop()
	r.set("infer.packed_forward_ms.b16", mean(t16))
	r.set("infer.packed_forward_ms.b1", mean(t1))
	sums.report(r, float64(len(t16)))
	r.set("trace.dropped_spans", float64(r.spans.dropped))
	return nil
}
