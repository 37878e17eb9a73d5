package quant

import (
	"sync"

	"repro/internal/nn"
)

// WeightCache is the per-layer cache every conv executor keeps for what
// it derives from a layer's weights (integer codes, splits, scales,
// bitplanes). The zero value is ready to use, and one cache is safe for
// concurrent Get and Invalidate calls.
//
// The invalidation rule lives here, once for all executors: Get builds
// outside the lock and stores the result only if no Invalidate ran
// meanwhile, so a Conv in flight across a weight update may return
// results from the old weights but can never put their codes back into
// the cache.
type WeightCache[T any] struct {
	mu  sync.Mutex
	gen uint64
	m   map[*nn.Conv2D]T
}

// Get returns the cached value for layer, calling build on a miss. hit
// reports whether the value came from the cache.
func (c *WeightCache[T]) Get(layer *nn.Conv2D, build func(*nn.Conv2D) T) (v T, hit bool) {
	c.mu.Lock()
	if v, ok := c.m[layer]; ok {
		c.mu.Unlock()
		return v, true
	}
	gen := c.gen
	c.mu.Unlock()

	v = build(layer)

	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.m[layer]; ok {
		return cur, false
	}
	if c.gen == gen {
		if c.m == nil {
			c.m = make(map[*nn.Conv2D]T)
		}
		c.m[layer] = v
	}
	return v, false
}

// Invalidate drops every cached value. The retraining contract: call it
// after every weight mutation BEFORE issuing new Conv calls.
func (c *WeightCache[T]) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.m = nil
}
