package infer

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// countingExec wraps an Executor and counts InvalidateCache calls — the
// seam for the exactly-once reload contract.
type countingExec struct {
	Executor
	invalidations atomic.Int64
}

func (c *countingExec) InvalidateCache() {
	c.invalidations.Add(1)
	c.Executor.InvalidateCache()
}

// TestReloadInvalidatesExactlyOnce pins the serve hot-reload contract:
// every Reload bumps the generation by one and calls the executor's
// InvalidateCache exactly once per bump — no redundant invalidations (a
// thrashing cache), no missing ones (stale weights).
func TestReloadInvalidatesExactlyOnce(t *testing.T) {
	net := testNet(t, 21)
	inner, err := NewFromScheme("odq", WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ce := &countingExec{Executor: inner}
	sess := NewSessionFromExecutor(net, "odq", ce, true)

	var buf bytes.Buffer
	if err := nn.Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	snapshot := buf.Bytes()

	const reloads = 5
	for i := 1; i <= reloads; i++ {
		if err := sess.Reload(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
		if got := sess.Generation(); got != uint64(i) {
			t.Fatalf("after %d reloads: generation %d", i, got)
		}
		if got := ce.invalidations.Load(); got != int64(i) {
			t.Fatalf("after %d reloads: %d InvalidateCache calls (want exactly one per reload)", i, got)
		}
	}
}

// TestReloadStaleWeightImpossible pins the session reload path for every
// scheme that caches weight codes: after a hot reload swaps the weights,
// no subsequent Forward may ever see results computed from the old
// weight codes — the reloaded session must be bit-identical to a session
// built fresh on the new weights.
func TestReloadStaleWeightImpossible(t *testing.T) {
	for _, scheme := range []string{"odq", "int4", "int8pc", "int4pc", "drq84"} {
		t.Run(scheme, func(t *testing.T) {
			x := testInput(2, 31)

			// Session A: build on seed-1 weights, run (packing seed-1
			// weight codes into the executor cache), then hot-reload
			// seed-2 weights.
			netA := testNet(t, 1)
			sessA, err := NewSession(netA, scheme, WithThreshold(0.5))
			if err != nil {
				t.Fatal(err)
			}
			before := sessA.Forward(x)

			netB := testNet(t, 2)
			var buf bytes.Buffer
			if err := nn.Save(&buf, netB); err != nil {
				t.Fatal(err)
			}
			if err := sessA.Reload(&buf); err != nil {
				t.Fatal(err)
			}
			after := sessA.Forward(x)

			// Reference: a fresh session built directly on seed-2 weights.
			netRef := testNet(t, 2)
			sessRef, err := NewSession(netRef, scheme, WithThreshold(0.5))
			if err != nil {
				t.Fatal(err)
			}
			want := sessRef.Forward(x)

			if tensor.MaxAbsDiff(after, want) != 0 {
				t.Fatal("post-reload output must be bit-identical to a fresh session on the new weights (stale weight codes leaked)")
			}
			if tensor.MaxAbsDiff(before, after) == 0 {
				t.Fatal("reload did not change the output — test net weights too similar to detect staleness")
			}

			// Repeat the forward: the cache now holds the fresh codes and
			// must stay stable.
			again := sessA.Forward(x)
			if tensor.MaxAbsDiff(after, again) != 0 {
				t.Fatal("post-reload cache must be stable across calls")
			}
		})
	}
}

// TestInvalidateAfterDirectMutation covers the non-checkpoint path:
// in-place weight mutation + Invalidate must behave like a reload.
func TestInvalidateAfterDirectMutation(t *testing.T) {
	net := testNet(t, 9)
	sess, err := NewSession(net, "int8")
	if err != nil {
		t.Fatal(err)
	}
	x := testInput(1, 13)
	out1 := sess.Forward(x)

	for _, c := range nn.Convs(net) {
		c.Weight.W.Scale(2)
	}
	sess.Invalidate()
	out2 := sess.Forward(x)
	if tensor.MaxAbsDiff(out1, out2) == 0 {
		t.Fatal("Invalidate must make the executor pick up mutated weights")
	}

	netRef := testNet(t, 9)
	for _, c := range nn.Convs(netRef) {
		c.Weight.W.Scale(2)
	}
	sessRef, err := NewSession(netRef, "int8")
	if err != nil {
		t.Fatal(err)
	}
	want := sessRef.Forward(x)
	if tensor.MaxAbsDiff(out2, want) != 0 {
		t.Fatal("post-invalidation output must match a fresh session on the mutated weights")
	}
}

// TestCorruptReloadLeavesSessionIntact: a reload from garbage must error
// and keep serving the old weights.
func TestCorruptReloadLeavesSessionIntact(t *testing.T) {
	net := testNet(t, 15)
	sess, err := NewSession(net, "odq", WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	x := testInput(1, 17)
	before := sess.Forward(x)
	gen := sess.Generation()

	if err := sess.Reload(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("corrupt checkpoint must error")
	}
	if sess.Generation() != gen {
		t.Fatal("failed reload must not bump the generation")
	}
	after := sess.Forward(x)
	if tensor.MaxAbsDiff(before, after) != 0 {
		t.Fatal("failed reload must leave the weights untouched")
	}
}
