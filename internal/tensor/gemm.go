package tensor

// Packed, cache-blocked, register-tiled GEMM kernels.
//
// All matrix products in the repo (float training convolutions, the Linear
// layer, and the integer kernels behind every quantized executor) funnel
// into one BLIS-style loop nest: the operands are packed into
// microkernel-sized panels (zero-padded at the tails), blocked MC×KC×NC to
// keep the A block in L2 and each B panel in L1, and the innermost tile is
// computed by a register-resident MR×NR microkernel. The B operand is a
// strided matrix or, for convolutions, one sample's input read as its
// im2col matrix, whose panels are packed straight from the input
// (conv.go). On amd64 with AVX2+FMA (detected at runtime) the float
// microkernel is a 6×16 fused-multiply-add kernel (partial tiles run its
// unfused twin into a stack tile) and the integer microkernel a 2×8
// VPMULDQ kernel; elsewhere a scalar register-tiled fallback runs.
//
// Numerical contract:
//   - float kernels (Gemm, GemmTN, GemmNT, ConvGemm, ConvGemmNT) may
//     reassociate the reduction (blocking reorders additions, FMA keeps
//     extra intermediate precision), so results can differ from the naive
//     ikj loop by normal float32 rounding. Results are deterministic for a
//     given machine and shape, and identical between serial and parallel
//     execution (the reduction order per output element never depends on
//     the worker count).
//   - integer kernels (GemmInt, ConvGemmInt) are bit-exact: integer
//     addition is associative, so any blocking order yields the same
//     accumulators as the naive loop. The ODQ sparse/dense `==` parity
//     tests rely on this.
//
// The naive ikj kernels in gemm_kernel_test.go are the parity oracles for
// the randomized kernel tests. End to end, float GEMM cost shows up in
// bench/'s tensor.gemm_ms.b16 and the resnet20-train-dp2 workload's
// throughput_per_s.

import "repro/internal/telemetry"

// gemmParallelThreshold is the minimum m*n*k product above which GEMM fans
// out across the shared worker pool; below it the single-threaded loop is
// faster.
const gemmParallelThreshold = 64 * 64 * 64

// gemmKC is the reduction-dimension block: one packed B panel is
// gemmKC×gemmNR values (≤16 KiB float32), sized to stay L1-resident while
// a microkernel sweeps it.
const gemmKC = 256

// Microkernel tile and blocking sizes. The microkernel shape is
// arch-dependent (6×16 for the AVX2 FMA kernel, scalar register tiles
// otherwise), so the derived blocking follows it: gemmMC is the A-block
// row count (A block ≈ MC×KC stays in L2), gemmNC the B-block column
// count (B block ≈ KC×NC, streamed once per MC block).
var (
	gemmMR = microMRF32()
	gemmNR = microNRF32()
	gemmMC = gemmMCFor(gemmMR)
	gemmNC = 64 * gemmNR

	gemmMRI = microMRInt()
	gemmNRI = microNRInt()
	gemmMCI = gemmMCFor(gemmMRI)
	gemmNCI = 64 * gemmNRI
)

// gemmMCFor rounds the ~128-row A block down to a multiple of mr.
func gemmMCFor(mr int) int {
	mc := (128 / mr) * mr
	if mc < mr {
		mc = mr
	}
	return mc
}

// gemmMaxTile bounds MR*NR across all microkernel shapes (edge tiles are
// accumulated in a stack tile of this size), and gemmMaxNR bounds NR.
const (
	gemmMaxTile = 6 * 16
	gemmMaxNR   = 16
)

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// gemmPool supplies the worker pool for the blocked cores. It is a
// variable (not a direct DefaultPool call) so tests can substitute a
// multi-worker pool and exercise the parallel row-block path even on
// single-CPU machines.
var gemmPool = DefaultPool

// ---- Public float32 entry points ----

// Gemm computes C = A*B for row-major matrices: A is m×k, B is k×n and C
// is m×n. C is overwritten. Large products are split across the shared
// worker pool by row blocks.
func Gemm(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: Gemm buffer too small")
	}
	if m == 0 || n == 0 {
		return
	}
	cc := c[:m*n]
	for i := range cc {
		cc[i] = 0
	}
	if k == 0 {
		return
	}
	gemmF32(a, k, 1, matB(b, n, 1), c, m, k, n)
}

// GemmTN computes C += Aᵀ*B where A is k×m row-major (so Aᵀ is m×k), B is
// k×n and C is m×n. The transposition is absorbed by the packing pass —
// no materialized transpose buffer. Used for dW += gradᵀ·x style
// accumulations.
func GemmTN(a, b, c []float32, m, k, n int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTN buffer too small")
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemmF32(a, 1, m, matB(b, n, 1), c, m, k, n)
}

// GemmNT computes C += A*Bᵀ where A is m×k, B is n×k row-major (so Bᵀ is
// k×n) and C is m×n. The transposition is absorbed by the packing pass.
// Used for y = x·Wᵀ and dW += grad·colsᵀ style products.
func GemmNT(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmNT buffer too small")
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemmF32(a, k, 1, matB(b, 1, k), c, m, k, n)
}

// ---- B operands ----

// gemmB is a blocked core's k×n B operand, which only its packer reads:
// a strided matrix, B̅[p][j] = data[p*rs + j*cs] (rs, cs express plain
// and transposed operands), or one sample's [C,H,W] input read as its
// im2col matrix (im2col) or that matrix's transpose (im2colT).
type gemmB[T float32 | int32] struct {
	data   []T
	rs, cs int
	kind   int
	g      ConvGeom
}

// gemmB kinds.
const (
	bMatrix = iota
	bIm2col
	bIm2colT
)

// matB is the strided matrix operand B̅[p][j] = b[p*rs + j*cs].
func matB[T float32 | int32](b []T, rs, cs int) gemmB[T] {
	return gemmB[T]{data: b, rs: rs, cs: cs}
}

// convB is the im2col matrix of the [C,H,W] input x, or with trans its
// transpose.
func convB[T float32 | int32](x []T, g ConvGeom, trans bool) gemmB[T] {
	b := gemmB[T]{data: x, kind: bIm2col, g: g}
	if trans {
		b.kind = bIm2colT
	}
	return b
}

// pack packs rows [pc,pc+kc) × cols [jc,jc+nc) of B̅ into nr-column
// panels laid out panel-major [p][j]; tail columns are zero-padded. Every
// source yields the values of the materialized matrix in the same slots.
func (b *gemmB[T]) pack(pc, kc, jc, nc, nr int, dst []T) {
	switch b.kind {
	case bIm2col:
		packConvB(b.data, &b.g, pc, kc, jc, nc, nr, dst)
	case bIm2colT:
		packConvBT(b.data, &b.g, pc, kc, jc, nc, nr, dst)
	default:
		packMatB(b.data, b.rs, b.cs, pc, kc, jc, nc, nr, dst)
	}
}

// ---- Float32 blocked core ----

// gemmF32 accumulates C += A̅·B̅ where A̅[i][p] = a[i*ars + p*acs] and B̅
// is b. The stride pair expresses plain and transposed A with one
// packing pass.
func gemmF32(a []float32, ars, acs int, b gemmB[float32], c []float32, m, k, n int) {
	mr, nr := gemmMR, gemmNR
	pool := gemmPool()
	parallel := pool.Size() > 1 && m*k*n >= gemmParallelThreshold
	if telemetry.Enabled() {
		if useAsmF32 {
			mGemmF32AVX2.Inc()
		} else {
			mGemmF32Scalar.Inc()
		}
		rb := 1
		if parallel {
			rb = (m + gemmMC - 1) / gemmMC
		}
		mGemmRowBlocks.Observe(float64(rb))
	}
	bp := GetFloat32(minInt(gemmKC, k) * minInt(gemmNC, roundUp(n, nr)))
	apLen := minInt(gemmMC, roundUp(m, mr)) * minInt(gemmKC, k)
	for jc := 0; jc < n; jc += gemmNC {
		nc := minInt(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := minInt(gemmKC, k-pc)
			spPack := telemetry.StartSpan("gemm.pack")
			b.pack(pc, kc, jc, nc, nr, bp)
			spPack.End()
			spKern := telemetry.StartSpan("gemm.kernel")
			blocks := (m + gemmMC - 1) / gemmMC
			runBlock := func(blk int) {
				ic := blk * gemmMC
				mc := minInt(gemmMC, m-ic)
				ap := GetFloat32(apLen)
				packA(a, ars, acs, ic, mc, pc, kc, mr, ap)
				for ir := 0; ir < mc; ir += mr {
					h := minInt(mr, mc-ir)
					apan := ap[(ir/mr)*kc*mr:]
					crow := c[(ic+ir)*n+jc:]
					for jr := 0; jr < nc; jr += nr {
						w := minInt(nr, nc-jr)
						bpan := bp[(jr/nr)*kc*nr:]
						if h == mr && w == nr && useAsmF32 {
							fmaKernel6x16(&apan[0], &bpan[0], kc, &crow[jr], n)
						} else if useAsmF32 {
							mulAddEdgeF32(apan, bpan, kc, h, w, crow[jr:], n)
						} else if h == mr && w == nr && mr == 1 {
							microF32Acc1x8(apan, bpan, kc, crow[jr:jr+8])
						} else {
							microF32Edge(apan, bpan, kc, mr, nr, h, w, crow[jr:], n)
						}
					}
				}
				PutFloat32(ap)
			}
			if parallel && blocks > 1 {
				pool.ParallelN(blocks, runBlock)
			} else {
				for blk := 0; blk < blocks; blk++ {
					runBlock(blk)
				}
			}
			spKern.End()
		}
	}
	PutFloat32(bp)
}

// roundUp rounds n up to a multiple of r. Pack buffers keep whole
// tail panels (MR×kc and kc×NR, zero-padded), which the microkernels
// read in full.
func roundUp(n, r int) int { return (n + r - 1) / r * r }

// packA packs rows [ic,ic+mc) × cols [pc,pc+kc) of A̅[i][p] =
// a[i*rs + p*cs] into mr-row panels laid out panel-major [p][r]; tail
// rows are zero-padded.
func packA[T float32 | int32](a []T, rs, cs int, ic, mc, pc, kc, mr int, dst []T) {
	for i0 := 0; i0 < mc; i0 += mr {
		h := minInt(mr, mc-i0)
		pan := dst[(i0/mr)*kc*mr:]
		if cs == 1 {
			for r := 0; r < h; r++ {
				src := a[(ic+i0+r)*rs+pc:]
				for p := 0; p < kc; p++ {
					pan[p*mr+r] = src[p]
				}
			}
		} else {
			for r := 0; r < h; r++ {
				base := (ic + i0 + r) * rs
				for p := 0; p < kc; p++ {
					pan[p*mr+r] = a[base+(pc+p)*cs]
				}
			}
		}
		if h < mr {
			for p := 0; p < kc; p++ {
				for r := h; r < mr; r++ {
					pan[p*mr+r] = 0
				}
			}
		}
	}
}

// packMatB packs rows [pc,pc+kc) × cols [jc,jc+nc) of the strided matrix
// B̅[p][j] = b[p*rs + j*cs] into nr-column panels laid out panel-major
// [p][j]; tail columns are zero-padded.
func packMatB[T float32 | int32](b []T, rs, cs int, pc, kc, jc, nc, nr int, dst []T) {
	for j0 := 0; j0 < nc; j0 += nr {
		w := minInt(nr, nc-j0)
		pan := dst[(j0/nr)*kc*nr:]
		if cs == 1 {
			for p := 0; p < kc; p++ {
				src := b[(pc+p)*rs+jc+j0:]
				d := pan[p*nr : p*nr+nr]
				for j := 0; j < w; j++ {
					d[j] = src[j]
				}
				for j := w; j < nr; j++ {
					d[j] = 0
				}
			}
		} else {
			for j := 0; j < w; j++ {
				src := b[(jc+j0+j)*cs+pc*rs:]
				for p := 0; p < kc; p++ {
					pan[p*nr+j] = src[p*rs]
				}
			}
			if w < nr {
				for p := 0; p < kc; p++ {
					for j := w; j < nr; j++ {
						pan[p*nr+j] = 0
					}
				}
			}
		}
	}
}

// microF32Acc1x8 is the scalar fallback microkernel for full 1×8 tiles:
// eight register-resident accumulators over one packed A row and one
// packed B panel.
func microF32Acc1x8(ap, bp []float32, kc int, cd []float32) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float32
	for p := 0; p < kc; p++ {
		av := ap[p]
		bq := bp[p*8 : p*8+8 : p*8+8]
		c0 += av * bq[0]
		c1 += av * bq[1]
		c2 += av * bq[2]
		c3 += av * bq[3]
		c4 += av * bq[4]
		c5 += av * bq[5]
		c6 += av * bq[6]
		c7 += av * bq[7]
	}
	cd = cd[:8:8]
	cd[0] += c0
	cd[1] += c1
	cd[2] += c2
	cd[3] += c3
	cd[4] += c4
	cd[5] += c5
	cd[6] += c6
	cd[7] += c7
}

// microF32Edge handles partial tiles (h<mr or w<nr) of the scalar
// build; AVX2 runs mulAddEdgeF32, bit-identical to it. The zero-padded
// panels make the full-tile product correct, so it accumulates the whole
// mr×nr tile on the stack and stores only the valid h×w corner.
func microF32Edge(ap, bp []float32, kc, mr, nr, h, w int, c []float32, ldc int) {
	var tile [gemmMaxTile]float32
	for p := 0; p < kc; p++ {
		aq := ap[p*mr : p*mr+mr]
		bq := bp[p*nr : p*nr+nr]
		for r := 0; r < h; r++ {
			av := aq[r]
			trow := tile[r*nr : r*nr+nr]
			for j := 0; j < w; j++ {
				trow[j] += av * bq[j]
			}
		}
	}
	for r := 0; r < h; r++ {
		cd := c[r*ldc:]
		trow := tile[r*nr:]
		for j := 0; j < w; j++ {
			cd[j] += trow[j]
		}
	}
}

// mulAddEdgeF32 computes a partial 6×16 tile (h<6 or w<16) on AVX2: the
// unfused kernel runs over the zero-padded panels into a zeroed stack
// tile, and the valid h×w corner is added into c. Each lane starts from
// zero, adds the rounded products in ascending p and is then added to c,
// the float32 operations and order of microF32Edge, so the two agree bit
// for bit. The FMA kernel would round once per step instead of twice.
func mulAddEdgeF32(ap, bp []float32, kc, h, w int, c []float32, ldc int) {
	var tile [gemmMaxTile]float32
	mulAddKernel6x16(&ap[0], &bp[0], kc, &tile[0], 16)
	for r := 0; r < h; r++ {
		cd := c[r*ldc : r*ldc+w]
		trow := tile[r*16:]
		for j := range cd {
			cd[j] += trow[j]
		}
	}
}

// ---- Integer entry point ----

// GemmInt computes C = A*B over int32 codes with int64 accumulation.
// A is m×k, B is k×n, C is m×n. This is the integer kernel behind all
// quantized convolution paths; int64 accumulation is safe even for INT16
// codes over CNN-scale reduction dimensions. Results are bit-identical to
// the naive ikj loop for any blocking (integer addition is associative).
func GemmInt(a, b []int32, c []int64, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmInt buffer too small")
	}
	if m == 0 || n == 0 {
		return
	}
	cc := c[:m*n]
	for i := range cc {
		cc[i] = 0
	}
	if k == 0 {
		return
	}
	gemmIntCore(a, matB(b, n, 1), c, m, k, n)
}

// gemmIntCore accumulates C += A·B̅ over int32 codes, A row-major m×k.
func gemmIntCore(a []int32, b gemmB[int32], c []int64, m, k, n int) {
	mr, nr := gemmMRI, gemmNRI
	pool := gemmPool()
	parallel := pool.Size() > 1 && m*k*n >= gemmParallelThreshold
	if telemetry.Enabled() {
		if useAsmInt {
			mGemmIntAVX2.Inc()
		} else {
			mGemmIntScalar.Inc()
		}
		rb := 1
		if parallel {
			rb = (m + gemmMCI - 1) / gemmMCI
		}
		mGemmRowBlocks.Observe(float64(rb))
	}
	bp := GetInt32(minInt(gemmKC, k) * minInt(gemmNCI, roundUp(n, nr)))
	apLen := minInt(gemmMCI, roundUp(m, mr)) * minInt(gemmKC, k)
	for jc := 0; jc < n; jc += gemmNCI {
		nc := minInt(gemmNCI, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := minInt(gemmKC, k-pc)
			spPack := telemetry.StartSpan("gemm.pack")
			b.pack(pc, kc, jc, nc, nr, bp)
			spPack.End()
			spKern := telemetry.StartSpan("gemm.kernel")
			blocks := (m + gemmMCI - 1) / gemmMCI
			runBlock := func(blk int) {
				ic := blk * gemmMCI
				mc := minInt(gemmMCI, m-ic)
				ap := GetInt32(apLen)
				packA(a, k, 1, ic, mc, pc, kc, mr, ap)
				for ir := 0; ir < mc; ir += mr {
					h := minInt(mr, mc-ir)
					apan := ap[(ir/mr)*kc*mr:]
					crow := c[(ic+ir)*n+jc:]
					for jr := 0; jr < nc; jr += nr {
						w := minInt(nr, nc-jr)
						bpan := bp[(jr/nr)*kc*nr:]
						if h == mr && w == nr && useAsmInt {
							mulKernelInt2x8(&apan[0], &bpan[0], kc, &crow[jr], n)
						} else if h == mr && w == nr && !useAsmInt {
							microIntAcc2x4(apan, bpan, kc, crow[jr:], n)
						} else {
							microIntEdge(apan, bpan, kc, mr, nr, h, w, crow[jr:], n)
						}
					}
				}
				PutInt32(ap)
			}
			if parallel && blocks > 1 {
				pool.ParallelN(blocks, runBlock)
			} else {
				for blk := 0; blk < blocks; blk++ {
					runBlock(blk)
				}
			}
			spKern.End()
		}
	}
	PutInt32(bp)
}

// microIntAcc2x4 is the scalar integer microkernel for full 2×4 tiles.
// Quantized code matrices are often zero-heavy (high/low code splits), so
// it keeps the per-element zero skip of the seed kernel.
func microIntAcc2x4(ap, bp []int32, kc int, c []int64, ldc int) {
	var c00, c01, c02, c03 int64
	var c10, c11, c12, c13 int64
	for p := 0; p < kc; p++ {
		aq := ap[p*2 : p*2+2 : p*2+2]
		bq := bp[p*4 : p*4+4 : p*4+4]
		if av := int64(aq[0]); av != 0 {
			c00 += av * int64(bq[0])
			c01 += av * int64(bq[1])
			c02 += av * int64(bq[2])
			c03 += av * int64(bq[3])
		}
		if av := int64(aq[1]); av != 0 {
			c10 += av * int64(bq[0])
			c11 += av * int64(bq[1])
			c12 += av * int64(bq[2])
			c13 += av * int64(bq[3])
		}
	}
	cd := c[:4:4]
	cd[0] += c00
	cd[1] += c01
	cd[2] += c02
	cd[3] += c03
	cd = c[ldc : ldc+4 : ldc+4]
	cd[0] += c10
	cd[1] += c11
	cd[2] += c12
	cd[3] += c13
}

// microIntEdge handles partial integer tiles via a stack tile, mirroring
// microF32Edge.
func microIntEdge(ap, bp []int32, kc, mr, nr, h, w int, c []int64, ldc int) {
	var tile [gemmMaxTile]int64
	for p := 0; p < kc; p++ {
		aq := ap[p*mr : p*mr+mr]
		bq := bp[p*nr : p*nr+nr]
		for r := 0; r < h; r++ {
			av := int64(aq[r])
			if av == 0 {
				continue
			}
			trow := tile[r*nr : r*nr+nr]
			for j := 0; j < w; j++ {
				trow[j] += av * int64(bq[j])
			}
		}
	}
	for r := 0; r < h; r++ {
		cd := c[r*ldc:]
		trow := tile[r*nr:]
		for j := 0; j < w; j++ {
			cd[j] += trow[j]
		}
	}
}
