package core

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// floatCut is the float form of the sensitivity cut, kept as the oracle
// the integer cut must reproduce bit for bit: the mean |predictor output|
// in float64, the cut float32(mean)·th, and |float32(a)·predScale| ≥ cut
// per output.
func floatCut(seg []int64, mseg []bool, predScale, th float32) (meanAbs float64, cut float32) {
	for _, a := range seg {
		v := float64(a) * float64(predScale)
		if v < 0 {
			v = -v
		}
		meanAbs += v
	}
	if len(seg) > 0 {
		meanAbs /= float64(len(seg))
	}
	cut = float32(meanAbs) * th
	for i, a := range seg {
		v := float32(a) * predScale
		if v < 0 {
			v = -v
		}
		mseg[i] = v >= cut
	}
	return meanAbs, cut
}

// checkCut fails when cutMask's mean or any mask bit differs from the
// float oracle's, or when, on the integer path, lim is not the least
// magnitude whose float value meets the oracle's cut.
func checkCut(t *testing.T, what string, seg []int64, ps, th float32) {
	t.Helper()
	want, got := make([]bool, len(seg)), make([]bool, len(seg))
	wantMean, wantCut := floatCut(seg, want, ps, th)
	gotMean := cutMask(seg, got, ps, th)
	if math.Float64bits(gotMean) != math.Float64bits(wantMean) {
		t.Fatalf("%s (ps=%v th=%v): mean %v, float form %v", what, ps, th, gotMean, wantMean)
	}
	for i := range seg {
		if got[i] != want[i] {
			t.Fatalf("%s (ps=%v th=%v): mask[%d] (a=%d) %v, float form %v (cut %v)",
				what, ps, th, i, seg[i], got[i], want[i], wantCut)
		}
	}
	if _, lim, ok := intCut(seg, ps, th); ok {
		abs := float32(math.Abs(float64(ps)))
		meets := func(m int64) bool { return float32(m)*abs >= wantCut }
		if (lim < exactSumLimit && !meets(lim)) || (lim > 0 && meets(lim-1)) {
			t.Fatalf("%s (ps=%v th=%v): lim %d is not the least magnitude meeting cut %v", what, ps, th, lim, wantCut)
		}
	}
}

var cutThresholds = []float32{-1, 0, 0.25, 1.5, 1e9, float32(math.Inf(1)),
	float32(math.Inf(-1)), float32(math.NaN())}

// randScale draws a positive predictor scale with a random 24-bit
// mantissa, so |a|·predScale really needs its 29 + 24 bits.
func randScale(rng *tensor.RNG) float32 {
	m := float64(1<<23 + rng.Intn(1<<23))
	return float32(math.Ldexp(m, -23-rng.Intn(30)))
}

// TestIntegerCutMatchesFloat pins the integer sensitivity cut to the
// float form over random accumulators, scales and thresholds.
func TestIntegerCutMatchesFloat(t *testing.T) {
	rng := tensor.NewRNG(71)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		span := []int{1, 4, 100, 2000, 1 << 20}[rng.Intn(5)]
		seg := make([]int64, n)
		for i := range seg {
			seg[i] = int64(rng.Intn(2*span+1) - span)
		}
		ps := randScale(rng)
		if trial%5 == 0 {
			ps = -ps
		}
		checkCut(t, "random", seg, ps, cutThresholds[trial%len(cutThresholds)])
	}
}

// TestIntegerCutBoundary puts accumulators exactly at the cut and one
// below it, holding Σ|a| (and so the cut) fixed.
func TestIntegerCutBoundary(t *testing.T) {
	rng := tensor.NewRNG(72)
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(200)
		seg := make([]int64, n)
		for i := range seg {
			seg[i] = int64(rng.Intn(401) - 200)
		}
		ps := randScale(rng)
		th := []float32{0.25, 0.5, 1, 1.5, 2.5}[trial%5]
		_, cut := floatCut(seg, make([]bool, n), ps, th)
		var m int64 // least magnitude meeting the cut
		for float32(m)*ps < cut {
			m++
		}
		if m < 2 {
			continue
		}
		// seg[0..3] become ±m and ±(m-1); seg[4] absorbs the change in
		// Σ|a|, so the mean and the cut stay where they were.
		var old int64
		for _, a := range seg[:5] {
			old += abs64(a)
		}
		rest := old - (2*m + 2*(m-1))
		if rest < 0 {
			continue
		}
		seg[0], seg[1], seg[2], seg[3], seg[4] = m, -m, m-1, -(m - 1), rest
		checkCut(t, "boundary", seg, ps, th)
	}
}

// TestIntegerCutSumGuard covers Σ|a| just below 2^29, where the integer
// cut must run and stay exact, and just above it, where the float loop
// must run: there the float64 mean, rounded at every partial sum, can
// differ from float64(Σ|a|)·predScale, and the cases below are chosen so
// that it does.
func TestIntegerCutSumGuard(t *testing.T) {
	rng := tensor.NewRNG(73)
	build := func(sum int64, tail int) []int64 {
		// A few large terms, then a tail of ones, so many partial sums
		// sit just under the final total.
		seg := make([]int64, 0, 4+tail)
		left := sum - int64(tail)
		for i := 0; i < 4; i++ {
			v := left / int64(4-i)
			if i%2 == 1 {
				seg = append(seg, -v)
			} else {
				seg = append(seg, v)
			}
			left -= v
		}
		for i := 0; i < tail; i++ {
			seg = append(seg, 1)
		}
		return seg
	}
	for trial := 0; trial < 50; trial++ {
		ps := float32(math.Ldexp(float64(1<<24-1-rng.Intn(1<<10)), -24-rng.Intn(8)))
		below := build(exactSumLimit-1-int64(rng.Intn(1000)), 500)
		if _, _, ok := intCut(below, ps, 1); !ok {
			t.Fatalf("Σ|a| < 2^29 must take the integer cut")
		}
		for _, th := range cutThresholds {
			checkCut(t, "just below 2^29", below, ps, th)
		}
	}
	distinct := 0
	for trial := 0; trial < 200; trial++ {
		ps := float32(math.Ldexp(float64(1<<24-1-rng.Intn(1<<10)), -24-rng.Intn(8)))
		above := build(exactSumLimit+int64(rng.Intn(4000)), 4000)
		if _, _, ok := intCut(above, ps, 1); ok {
			t.Fatalf("Σ|a| ≥ 2^29 must take the float loop")
		}
		var sum int64
		for _, a := range above {
			sum += abs64(a)
		}
		floatMean, _ := floatCut(above, make([]bool, len(above)), ps, 1)
		if float64(sum)*float64(ps)/float64(len(above)) == floatMean {
			continue
		}
		distinct++
		for _, th := range cutThresholds {
			checkCut(t, "just above 2^29", above, ps, th)
		}
	}
	if distinct == 0 {
		t.Fatal("no case above 2^29 separates the exact mean from the float loop's")
	}
}

// TestIntegerCutEdgeScales covers predScale = 0, non-finite scales, an
// all-zero sample and an empty one, for every threshold.
func TestIntegerCutEdgeScales(t *testing.T) {
	seg := []int64{0, 5, -7, 1 << 20, -(1 << 20), 3}
	zeros := make([]int64, 9)
	for _, th := range cutThresholds {
		for _, ps := range []float32{0, float32(math.Copysign(0, -1)), 1e-45, 3e38,
			float32(math.Inf(1)), float32(math.NaN())} {
			checkCut(t, "edge scale", seg, ps, th)
			checkCut(t, "all zero", zeros, ps, th)
			checkCut(t, "empty", nil, ps, th)
		}
	}
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
