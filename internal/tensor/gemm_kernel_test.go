package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// ---- Naive reference kernels (the seed implementation) ----
//
// The seed ikj loops, kept as the parity oracles for the randomized kernel
// tests. Do not optimize.

// gemmNaive is the seed ikj kernel: C = A*B, single-threaded.
func gemmNaive(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for x := range ci {
			ci[x] = 0
		}
	}
	gemmAccNaive(a, b, c, m, k, n)
}

// gemmAccNaive is the seed ikj accumulation kernel: C += A*B.
func gemmAccNaive(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// gemmIntNaive is the seed ikj integer kernel: C = A*B with int64
// accumulation.
func gemmIntNaive(a, b []int32, c []int64, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for x := range ci {
			ci[x] = 0
		}
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := int64(ai[p])
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * int64(bv)
			}
		}
	}
}

// kernelShapes covers odd and prime dimensions, microkernel tail blocks
// (one off either side of MR/NR), KC boundary straddles, and the CNN-scale
// shape the benchmarks use.
func kernelShapes() [][3]int {
	shapes := [][3]int{
		{1, 1, 1},
		{2, 3, 5},
		{7, 11, 13},
		{37, 53, 61},
		{13, 300, 33},
		{7, 256, 17},
		{64, 100, 64},
		{5, 255, 9},
		{3, 257, 31},
		{64, 576, 96},
	}
	// One past the row and column blocks and one short of the reduction
	// block, float and integer: the pack buffers are sized to the
	// operands, so these straddle every buffer-size boundary.
	shapes = append(shapes,
		[3]int{gemmMC + 1, 9, 7},
		[3]int{3, 7, gemmNC + 1},
		[3]int{5, gemmKC - 1, 17},
		[3]int{gemmMCI + 1, 9, 7},
		[3]int{3, 7, gemmNCI + 1},
	)
	// Tail blocks around the active microkernel tile.
	for _, dm := range []int{-1, 0, 1} {
		for _, dn := range []int{-1, 0, 1} {
			m := gemmMR*3 + dm
			n := gemmNR*2 + dn
			if m < 1 {
				m = 1
			}
			if n < 1 {
				n = 1
			}
			shapes = append(shapes, [3]int{m, gemmKC + 1, n})
		}
	}
	return shapes
}

func fillRandF32(rng *RNG, s []float32) {
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
}

// fillRandI32 produces signed INT8-range codes with a zero-heavy
// distribution, matching the high/low code splits the quantized executors
// feed GemmInt.
func fillRandI32(rng *RNG, s []int32) {
	for i := range s {
		v := int32(rng.Intn(255)) - 127
		if rng.Intn(4) == 0 {
			v = 0
		}
		s[i] = v
	}
}

func assertCloseF32(t *testing.T, got, want []float32, tol float64, label string) {
	t.Helper()
	for i := range want {
		diff := math.Abs(float64(got[i]) - float64(want[i]))
		scale := math.Max(1, math.Abs(float64(want[i])))
		if diff > tol*scale {
			t.Fatalf("%s: element %d: got %g want %g (rel diff %g)",
				label, i, got[i], want[i], diff/scale)
		}
	}
}

// TestGemmTiledMatchesNaive checks the blocked float kernel against the
// retained seed ikj loop across odd, prime and tail-block shapes. Float
// results may reassociate, so the comparison is relative, not exact.
func TestGemmTiledMatchesNaive(t *testing.T) {
	rng := NewRNG(11)
	for _, sh := range kernelShapes() {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillRandF32(rng, a)
		fillRandF32(rng, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		Gemm(a, b, got, m, k, n)
		gemmNaive(a, b, want, m, k, n)
		assertCloseF32(t, got, want, 1e-4, fmt.Sprintf("Gemm %dx%dx%d", m, k, n))
	}
}

// TestGemmAccTiledMatchesNaive seeds C with nonzero values and checks the
// accumulating blocked core (C += A·B, the core GemmTN, GemmNT and
// ConvGemmNT run).
func TestGemmAccTiledMatchesNaive(t *testing.T) {
	rng := NewRNG(13)
	for _, sh := range kernelShapes() {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillRandF32(rng, a)
		fillRandF32(rng, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		fillRandF32(rng, want)
		copy(got, want)
		gemmF32(a, k, 1, matB(b, n, 1), got, m, k, n)
		gemmAccNaive(a, b, want, m, k, n)
		assertCloseF32(t, got, want, 1e-4, fmt.Sprintf("gemmF32 acc %dx%dx%d", m, k, n))
	}
}

// TestGemmIntTiledBitExact is the integer-exactness contract: the blocked
// kernel must produce bit-identical accumulators to the naive loop for
// every shape — the ODQ sparse/dense `==` parity tests depend on it.
func TestGemmIntTiledBitExact(t *testing.T) {
	rng := NewRNG(17)
	for _, sh := range kernelShapes() {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]int32, m*k)
		b := make([]int32, k*n)
		fillRandI32(rng, a)
		fillRandI32(rng, b)
		got := make([]int64, m*n)
		want := make([]int64, m*n)
		GemmInt(a, b, got, m, k, n)
		gemmIntNaive(a, b, want, m, k, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GemmInt %dx%dx%d: element %d: got %d want %d (must be bit-exact)",
					m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestGemmTNMatchesMaterializedTranspose checks that the stride-absorbed
// transpose of GemmTN matches materializing Aᵀ and running gemmAccNaive.
func TestGemmTNMatchesMaterializedTranspose(t *testing.T) {
	rng := NewRNG(19)
	for _, sh := range kernelShapes() {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, k*m) // k×m, logical operand is Aᵀ (m×k)
		b := make([]float32, k*n)
		fillRandF32(rng, a)
		fillRandF32(rng, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		fillRandF32(rng, want)
		copy(got, want)
		GemmTN(a, b, got, m, k, n)
		at := make([]float32, m*k)
		for p := 0; p < k; p++ {
			for i := 0; i < m; i++ {
				at[i*k+p] = a[p*m+i]
			}
		}
		gemmAccNaive(at, b, want, m, k, n)
		assertCloseF32(t, got, want, 1e-4, fmt.Sprintf("GemmTN %dx%dx%d", m, k, n))
	}
}

// TestGemmNTMatchesMaterializedTranspose does the same for GemmNT (C += A·Bᵀ).
func TestGemmNTMatchesMaterializedTranspose(t *testing.T) {
	rng := NewRNG(23)
	for _, sh := range kernelShapes() {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, n*k) // n×k, logical operand is Bᵀ (k×n)
		fillRandF32(rng, a)
		fillRandF32(rng, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		fillRandF32(rng, want)
		copy(got, want)
		GemmNT(a, b, got, m, k, n)
		bt := make([]float32, k*n)
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				bt[p*n+j] = b[j*k+p]
			}
		}
		gemmAccNaive(a, bt, want, m, k, n)
		assertCloseF32(t, got, want, 1e-4, fmt.Sprintf("GemmNT %dx%dx%d", m, k, n))
	}
}

// TestGemmBiasRowMatchesGemmPlusBias checks ConvGemm's bias rows against
// an explicit Gemm over the im2col matrix followed by a row-broadcast add:
// first as plain m×k×n products (a 1×1 kernel over a 1×n input, whose
// im2col matrix is the input itself), then on every convCases geometry.
func TestGemmBiasRowMatchesGemmPlusBias(t *testing.T) {
	rng := NewRNG(29)
	var geoms []ConvGeom
	for _, sh := range [][3]int{{1, 1, 1}, {7, 11, 13}, {37, 53, 61}, {64, 576, 96}} {
		m, k, n := sh[0], sh[1], sh[2]
		geoms = append(geoms, Geometry(k, 1, n, m, 1, 1, 0))
	}
	for _, cc := range convCases {
		geoms = append(geoms, cc.geom())
	}
	for _, g := range geoms {
		m, k, n := g.OutC, g.ColRows(), g.ColCols()
		w := make([]float32, m*k)
		x := make([]float32, g.InC*g.InH*g.InW)
		bias := make([]float32, m)
		fillRandF32(rng, w)
		fillRandF32(rng, x)
		fillRandF32(rng, bias)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		ConvGemm(w, x, g, got, bias)
		cols := make([]float32, k*n)
		Im2col(x, g, cols)
		Gemm(w, cols, want, m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want[i*n+j] += bias[i]
			}
		}
		assertCloseF32(t, got, want, 1e-4, fmt.Sprintf("ConvGemm bias %+v", g))
	}
}

// TestPartialTileKernelMatchesScalar checks the AVX2 partial-tile path,
// the unfused kernel plus the corner add, bit for bit against the scalar
// edge kernel and against an explicit round-the-product-then-add oracle,
// for every tile shape, across magnitudes from 1e-30 to 1e30 with
// subnormals, signed zeros and infinities. NaN results compare by
// NaN-ness (payloads may differ). A fused multiply-add rounds once and
// fails it.
func TestPartialTileKernelMatchesScalar(t *testing.T) {
	if !useAsmF32 {
		t.Skip("no AVX2 kernel on this machine")
	}
	const mr, nr, ldc = 6, 16, 19
	rng := NewRNG(41)
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32 * 7, 1e-39, -3e-40}
	draw := func() float32 {
		if rng.Intn(50) == 0 {
			return special[rng.Intn(len(special))]
		}
		v := float32(math.Pow(10, float64(rng.Float32()*60-30))) * (1 + rng.Float32())
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	same := func(a, b float32) bool {
		if a != a || b != b {
			return a != a && b != b
		}
		return math.Float32bits(a) == math.Float32bits(b)
	}
	for _, kc := range []int{1, 2, 7, 255, 256} {
		for h := 1; h <= mr; h++ {
			for w := 1; w <= nr; w++ {
				if h == mr && w == nr {
					continue
				}
				ap := make([]float32, kc*mr)
				bp := make([]float32, kc*nr)
				for p := 0; p < kc; p++ {
					for r := 0; r < h; r++ {
						ap[p*mr+r] = draw()
					}
					for j := 0; j < w; j++ {
						bp[p*nr+j] = draw()
					}
				}
				c0 := make([]float32, h*ldc)
				for i := range c0 {
					c0[i] = draw()
				}
				got := append([]float32(nil), c0...)
				edge := append([]float32(nil), c0...)
				mulAddEdgeF32(ap, bp, kc, h, w, got, ldc)
				microF32Edge(ap, bp, kc, mr, nr, h, w, edge, ldc)
				for r := 0; r < h; r++ {
					for j := 0; j < ldc; j++ {
						i := r*ldc + j
						want := c0[i]
						if j < w {
							var acc float32
							for p := 0; p < kc; p++ {
								acc += float32(ap[p*mr+r] * bp[p*nr+j])
							}
							want += acc
						}
						if !same(got[i], want) || !same(edge[i], want) {
							t.Fatalf("kc %d tile %dx%d at (%d,%d): kernel %g (%#x), edge %g (%#x), oracle %g (%#x)",
								kc, h, w, r, j, got[i], math.Float32bits(got[i]), edge[i], math.Float32bits(edge[i]),
								want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

// TestGemmDegenerateShapes exercises every entry point with zero
// dimensions. The seed implementation divided by a row-block count derived
// from m, so m==0 crashed; now all entry points must be no-ops with the
// documented C semantics. The conv entry points get m = 0 from OutC 0,
// n = 0 from a 0×0 output and k = 0 from InC 0.
func TestGemmDegenerateShapes(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	bias := []float32{9, 9}
	ai := []int32{1, 2, 3, 4}
	bi := []int32{5, 6, 7, 8}
	// A 1×1 kernel over a 1×2 input: m = OutC, k = InC, n = 2.
	geom := func(m, k, n int) ConvGeom {
		return ConvGeom{InC: k, InH: 1, InW: n, OutC: m, OutH: 1, OutW: n, K: 1, Stride: 1}
	}

	t.Run("m=0", func(t *testing.T) {
		c := []float32{42, 42}
		Gemm(a, b, c, 0, 2, 2)
		GemmTN(a, b, c, 0, 2, 2)
		GemmNT(a, b, c, 0, 2, 2)
		ConvGemm(a, b, geom(0, 2, 2), c, bias)
		ConvGemmNT(a, b, geom(0, 2, 2), c)
		ci := []int64{42, 42}
		GemmInt(ai, bi, ci, 0, 2, 2)
		ConvGemmInt(ai, bi, geom(0, 2, 2), ci, 0)
		if c[0] != 42 || ci[0] != 42 {
			t.Fatalf("m=0 must leave C untouched, got %v %v", c, ci)
		}
	})
	t.Run("n=0", func(t *testing.T) {
		c := []float32{42, 42}
		Gemm(a, b, c, 2, 2, 0)
		GemmTN(a, b, c, 2, 2, 0)
		GemmNT(a, b, c, 2, 2, 0)
		ConvGemm(a, b, geom(2, 2, 0), c, bias)
		ConvGemmNT(a, b, geom(2, 0, 2), c) // dW: n = C·K·K = 0 taps
		ci := []int64{42, 42}
		GemmInt(ai, bi, ci, 2, 2, 0)
		ConvGemmInt(ai, bi, geom(2, 2, 0), ci, 2)
		if c[0] != 42 || ci[0] != 42 {
			t.Fatalf("n=0 must leave C untouched, got %v %v", c, ci)
		}
	})
	t.Run("k=0", func(t *testing.T) {
		// k==0 means the product is the zero matrix: Gemm, GemmInt,
		// ConvGemmInt and ConvGemm without bias zero C, ConvGemm with bias
		// leaves the broadcast bias, accumulators are no-ops.
		c := []float32{42, 42, 42, 42}
		Gemm(a, b, c, 2, 0, 2)
		if c[0] != 0 || c[3] != 0 {
			t.Fatalf("Gemm k=0 must zero C, got %v", c)
		}
		c = []float32{42, 42, 42, 42}
		ConvGemm(a, b, geom(2, 0, 2), c, nil)
		if c[0] != 0 || c[3] != 0 {
			t.Fatalf("ConvGemm k=0 must zero C, got %v", c)
		}
		acc := []float32{1, 2, 3, 4}
		GemmTN(a, b, acc, 2, 0, 2)
		GemmNT(a, b, acc, 2, 0, 2)
		ConvGemmNT(a, b, geom(2, 2, 0), acc) // k = OH·OW = 0 for dW
		if acc[0] != 1 || acc[3] != 4 {
			t.Fatalf("accumulating kernels with k=0 must leave C untouched, got %v", acc)
		}
		cb := []float32{0, 0, 0, 0}
		ConvGemm(a, b, geom(2, 0, 2), cb, bias)
		if cb[0] != 9 || cb[3] != 9 {
			t.Fatalf("ConvGemm k=0 must broadcast bias, got %v", cb)
		}
		ci := []int64{42, 42, 42, 42}
		GemmInt(ai, bi, ci, 2, 0, 2)
		if ci[0] != 0 || ci[3] != 0 {
			t.Fatalf("GemmInt k=0 must zero C, got %v", ci)
		}
		ci = []int64{42, 42, 42, 42}
		ConvGemmInt(ai, bi, geom(2, 0, 2), ci, 2)
		if ci[0] != 0 || ci[3] != 0 {
			t.Fatalf("ConvGemmInt k=0 must zero C, got %v", ci)
		}
	})
	t.Run("all-zero", func(t *testing.T) {
		Gemm(nil, nil, nil, 0, 0, 0)
		GemmTN(nil, nil, nil, 0, 0, 0)
		GemmNT(nil, nil, nil, 0, 0, 0)
		GemmInt(nil, nil, nil, 0, 0, 0)
		ConvGemm(nil, nil, ConvGeom{}, nil, nil)
		ConvGemmNT(nil, nil, ConvGeom{}, nil)
		ConvGemmInt(nil, nil, ConvGeom{}, nil, 0)
	})
}

// TestGemmSerialSizeOnePool pins the satellite contract directly: with a
// single-worker pool the blocked core must not enqueue pool tasks at all
// (Pool size 1 has no queue — enqueueing would panic on the nil channel),
// even for products far above the parallel threshold.
func TestGemmSerialSizeOnePool(t *testing.T) {
	old := gemmPool
	gemmPool = func() *Pool { return NewPool(1) }
	defer func() { gemmPool = old }()

	m, k, n := 300, 80, 96 // well above gemmParallelThreshold, >1 MC block
	rng := NewRNG(31)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fillRandF32(rng, a)
	fillRandF32(rng, b)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	Gemm(a, b, got, m, k, n)
	gemmNaive(a, b, want, m, k, n)
	assertCloseF32(t, got, want, 1e-4, "size-one pool Gemm")
}

// TestGemmParallelMatchesSerial substitutes a multi-worker pool so the
// row-block fan-out actually runs (DefaultPool may be size 1 on small
// machines) and checks the parallel result is bit-identical to the serial
// one: row blocks are disjoint, so per-element reduction order must not
// depend on the worker count.
func TestGemmParallelMatchesSerial(t *testing.T) {
	m, k, n := 300, 80, 96 // >1 MC block and above the parallel threshold
	rng := NewRNG(37)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fillRandF32(rng, a)
	fillRandF32(rng, b)
	ai := make([]int32, m*k)
	bi := make([]int32, k*n)
	fillRandI32(rng, ai)
	fillRandI32(rng, bi)

	serial := make([]float32, m*n)
	serialInt := make([]int64, m*n)
	Gemm(a, b, serial, m, k, n) // DefaultPool on a 1-CPU box stays serial
	GemmInt(ai, bi, serialInt, m, k, n)

	old := gemmPool
	par := NewPool(4)
	gemmPool = func() *Pool { return par }
	defer func() { gemmPool = old }()

	parallel := make([]float32, m*n)
	parallelInt := make([]int64, m*n)
	Gemm(a, b, parallel, m, k, n)
	GemmInt(ai, bi, parallelInt, m, k, n)

	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("float element %d: serial %g != parallel %g", i, serial[i], parallel[i])
		}
		if serialInt[i] != parallelInt[i] {
			t.Fatalf("int element %d: serial %d != parallel %d", i, serialInt[i], parallelInt[i])
		}
	}
}

// TestGemmConcurrentCallers runs many goroutines through the kernels at
// once — the scratch pools and packing buffers must be race-free (this is
// exercised under -race by make verify).
func TestGemmConcurrentCallers(t *testing.T) {
	const workers = 8
	m, k, n := 37, 300, 33
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := NewRNG(seed)
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			fillRandF32(rng, a)
			fillRandF32(rng, b)
			ai := make([]int32, m*k)
			bi := make([]int32, k*n)
			fillRandI32(rng, ai)
			fillRandI32(rng, bi)
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			gotI := make([]int64, m*n)
			wantI := make([]int64, m*n)
			for iter := 0; iter < 8; iter++ {
				Gemm(a, b, got, m, k, n)
				gemmNaive(a, b, want, m, k, n)
				for i := range want {
					d := math.Abs(float64(got[i]) - float64(want[i]))
					if d > 1e-4*math.Max(1, math.Abs(float64(want[i]))) {
						errc <- fmt.Errorf("concurrent Gemm diverged at %d", i)
						return
					}
				}
				GemmInt(ai, bi, gotI, m, k, n)
				gemmIntNaive(ai, bi, wantI, m, k, n)
				for i := range wantI {
					if gotI[i] != wantI[i] {
						errc <- fmt.Errorf("concurrent GemmInt diverged at %d", i)
						return
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
