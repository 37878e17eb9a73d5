package quant

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestWeightCacheHitMiss(t *testing.T) {
	rng := tensor.NewRNG(1)
	// Two layers with one name: the cache keys on the layer, not its name.
	a := nn.NewConv2D("c", 1, 1, 3, 1, 1, false, rng)
	b := nn.NewConv2D("c", 1, 1, 3, 1, 1, false, rng)
	var c WeightCache[int] // the zero value is usable
	builds := 0
	build := func(*nn.Conv2D) int { builds++; return builds }

	steps := []struct {
		layer   *nn.Conv2D
		invalid bool // call Invalidate before this Get
		want    int
		hit     bool
	}{
		{a, false, 1, false},
		{a, false, 1, true},
		{b, false, 2, false},
		{b, false, 2, true},
		{a, true, 3, false},
		{a, false, 3, true},
		{b, false, 4, false},
	}
	for i, st := range steps {
		if st.invalid {
			c.Invalidate()
		}
		v, hit := c.Get(st.layer, build)
		if v != st.want || hit != st.hit {
			t.Fatalf("step %d: Get = (%d, hit=%v), want (%d, hit=%v)", i, v, hit, st.want, st.hit)
		}
	}
}

// TestWeightCacheStraddlingBuildNotStored pins the generation check: a
// build that starts before Invalidate and finishes after it still answers
// its own caller, but its value must not be stored, so the next Get
// builds again.
func TestWeightCacheStraddlingBuildNotStored(t *testing.T) {
	layer := nn.NewConv2D("c", 1, 1, 3, 1, 1, false, tensor.NewRNG(1))
	var c WeightCache[string]
	started := make(chan struct{})
	release := make(chan struct{})
	type result struct {
		v   string
		hit bool
	}
	done := make(chan result)
	go func() {
		v, hit := c.Get(layer, func(*nn.Conv2D) string {
			close(started)
			<-release
			return "stale"
		})
		done <- result{v, hit}
	}()
	<-started
	c.Invalidate()
	close(release)
	if r := <-done; r.v != "stale" || r.hit {
		t.Fatalf("straddling Get = (%q, hit=%v), want its own build (\"stale\", miss)", r.v, r.hit)
	}
	v, hit := c.Get(layer, func(*nn.Conv2D) string { return "fresh" })
	if v != "fresh" || hit {
		t.Fatalf("Get after a straddling build = (%q, hit=%v), want a new build: the stale value was stored", v, hit)
	}
}

// TestWeightCacheFirstStoreWins: when two builds of one generation race,
// the first one stored is the one both callers (and later hits) see.
func TestWeightCacheFirstStoreWins(t *testing.T) {
	layer := nn.NewConv2D("c", 1, 1, 3, 1, 1, false, tensor.NewRNG(1))
	var c WeightCache[string]
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan string)
	go func() {
		v, _ := c.Get(layer, func(*nn.Conv2D) string {
			close(started)
			<-release
			return "late"
		})
		done <- v
	}()
	<-started
	if v, hit := c.Get(layer, func(*nn.Conv2D) string { return "early" }); v != "early" || hit {
		t.Fatalf("racing Get = (%q, hit=%v), want (\"early\", miss)", v, hit)
	}
	close(release)
	if v := <-done; v != "early" {
		t.Fatalf("slow builder got %q, want the stored \"early\"", v)
	}
	if v, hit := c.Get(layer, func(*nn.Conv2D) string { return "again" }); v != "early" || !hit {
		t.Fatalf("Get = (%q, hit=%v), want a hit on \"early\"", v, hit)
	}
}
