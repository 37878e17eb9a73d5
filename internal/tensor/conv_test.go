package tensor

import (
	"fmt"
	"math"
	"testing"
)

// convCase is one convolution geometry of the conv GEMM tests.
type convCase struct {
	name                         string
	c, h, w, outC, k, stride, pd int
}

// convCases covers the networks' layers and the packers' corners:
// panels that straddle output rows (OW not a multiple of NR), two kc
// blocks (C·K·K > 256) and two NC blocks (OH·OW > 1024).
var convCases = []convCase{
	{"r20w25-stem", 3, 32, 32, 4, 3, 1, 1},
	{"r20w25-s1", 4, 32, 32, 4, 3, 1, 1},
	{"r20w25-s2down", 4, 32, 32, 8, 3, 2, 1},
	{"r20w25-s2sc", 4, 32, 32, 8, 1, 2, 0},
	{"r20w25-s3", 16, 8, 8, 16, 3, 1, 1},
	{"r20w50-s1", 8, 32, 32, 8, 3, 1, 1},
	{"r20w50-s2", 16, 16, 16, 16, 3, 1, 1},
	{"r20w50-s3sc", 16, 16, 16, 32, 1, 2, 0},
	{"lenet-conv1", 1, 28, 28, 6, 5, 1, 2},
	{"lenet-conv2", 6, 14, 14, 16, 5, 1, 0},
	{"out33x33", 2, 33, 33, 5, 3, 1, 1},
	{"ckk288", 32, 6, 6, 7, 3, 1, 1},
	{"ow7-pad2-stride3", 3, 19, 18, 3, 4, 3, 2},
	{"ow1", 2, 9, 1, 3, 3, 1, 1},
	{"kernel-wider-than-input", 2, 3, 2, 4, 5, 1, 2},
}

func (cc convCase) geom() ConvGeom {
	return Geometry(cc.c, cc.h, cc.w, cc.outC, cc.k, cc.stride, cc.pd)
}

// convGemmRef is ConvGemm through the materialized im2col matrix: the
// rows start from the bias (or zero) and the blocked core accumulates
// w·cols into them, as the matrix entry points do.
func convGemmRef(w, x []float32, g ConvGeom, out, bias []float32) {
	m, k, n := g.OutC, g.ColRows(), g.ColCols()
	cols := make([]float32, k*n)
	Im2col(x, g, cols)
	if bias == nil {
		Gemm(w, cols, out, m, k, n)
		return
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = bias[i]
		}
	}
	gemmF32(w, k, 1, matB(cols, n, 1), out, m, k, n)
}

// poisonPools files NaN-filled float and all-ones int buffers of size n
// into the scratch pools, so a packer that skips a slot of its pooled
// panel buffer reads poison.
func poisonPools(n int) {
	f := GetFloat32(n)
	for i := range f {
		f[i] = float32(math.NaN())
	}
	PutFloat32(f)
	v := GetInt32(n)
	for i := range v {
		v[i] = 0x3fffffff
	}
	PutInt32(v)
}

// checkConvGemm compares ConvGemm (with and without bias), ConvGemmNT
// and ConvGemmInt against the im2col oracle, floats by their bits and
// ints by ==.
func checkConvGemm(t *testing.T, g ConvGeom, seed int64) {
	t.Helper()
	rng := NewRNG(seed)
	rows, cols := g.ColRows(), g.ColCols()
	x := make([]float32, g.InC*g.InH*g.InW)
	fillRandF32(rng, x)
	w := make([]float32, g.OutC*rows)
	fillRandF32(rng, w)
	bias := make([]float32, g.OutC)
	fillRandF32(rng, bias)
	gs := make([]float32, g.OutC*cols)
	fillRandF32(rng, gs)
	xi := make([]int32, len(x))
	fillRandI32(rng, xi)
	wi := make([]int32, g.OutC*rows)
	fillRandI32(rng, wi)
	poisonPools(min(gemmKC, rows) * min(gemmNC, roundUp(cols, gemmNR)))
	poisonPools(min(gemmKC, cols) * min(gemmNC, roundUp(rows, gemmNR)))
	poisonPools(min(gemmKC, rows) * min(gemmNCI, roundUp(cols, gemmNRI)))

	sameF32 := func(label string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%+v %s: element %d: got %g (%#x) want %g (%#x)", g, label, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	for _, b := range [][]float32{nil, bias} {
		got := GetFloat32(g.OutC * cols)
		for i := range got {
			got[i] = float32(math.NaN())
		}
		want := make([]float32, g.OutC*cols)
		ConvGemm(w, x, g, got, b)
		convGemmRef(w, x, g, want, b)
		sameF32(fmt.Sprintf("ConvGemm bias=%v", b != nil), got, want)
		PutFloat32(got)
	}

	colsM := make([]float32, rows*cols)
	Im2col(x, g, colsM)
	got := make([]float32, g.OutC*rows)
	fillRandF32(rng, got)
	want := append([]float32(nil), got...)
	ConvGemmNT(gs, x, g, got)
	GemmNT(gs, colsM, want, g.OutC, cols, rows)
	sameF32("ConvGemmNT", got, want)

	m := g.OutC
	colsI := make([]int32, rows*cols)
	Im2colInt(xi, g, colsI)
	gotI := GetInt64(m * cols)
	for i := range gotI {
		gotI[i] = math.MaxInt64
	}
	wantI := make([]int64, m*cols)
	ConvGemmInt(wi, xi, g, gotI)
	GemmInt(wi, colsI, wantI, m, rows, cols)
	for i := range wantI {
		if gotI[i] != wantI[i] {
			t.Fatalf("%+v ConvGemmInt: element %d: got %d want %d", g, i, gotI[i], wantI[i])
		}
	}
	PutInt64(gotI)
}

// TestConvGemmMatchesIm2colGemm checks the implicit-GEMM entry points
// against im2col followed by the matrix entry points, bit for bit, on
// every convCases geometry; once more with a four-worker GEMM pool and
// enough output channels for several row blocks.
func TestConvGemmMatchesIm2colGemm(t *testing.T) {
	for i, cc := range convCases {
		t.Run(cc.name, func(t *testing.T) { checkConvGemm(t, cc.geom(), int64(100+i)) })
	}
	t.Run("parallel-row-blocks", func(t *testing.T) {
		old := gemmPool
		par := NewPool(4)
		gemmPool = func() *Pool { return par }
		defer func() { gemmPool = old }()
		checkConvGemm(t, Geometry(8, 16, 16, 2*gemmMC+3, 3, 1, 1), 7)
	})
}

// TestConvPackersEveryNR packs every panel width a build uses (4 and 8
// for the scalar int and float kernels, 8 and 16 for AVX2) straight from
// the input and from the materialized im2col matrix (and its transpose),
// over blocks that start and end mid-row and mid-channel, and requires
// identical panels.
func TestConvPackersEveryNR(t *testing.T) {
	for _, cc := range convCases {
		g := cc.geom()
		rows, cols := g.ColRows(), g.ColCols()
		rng := NewRNG(int64(rows + cols))
		x := make([]int32, g.InC*g.InH*g.InW)
		fillRandI32(rng, x)
		m := make([]int32, rows*cols)
		Im2colInt(x, g, m)
		for _, nr := range []int{4, 8, 16} {
			for _, op := range []struct {
				name   string
				k, n   int
				rs, cs int
				conv   func(pc, kc, jc, nc int, dst []int32)
			}{
				{"B", rows, cols, cols, 1, func(pc, kc, jc, nc int, dst []int32) {
					packConvB(x, &g, pc, kc, jc, nc, nr, dst)
				}},
				{"BT", cols, rows, 1, cols, func(pc, kc, jc, nc int, dst []int32) {
					packConvBT(x, &g, pc, kc, jc, nc, nr, dst)
				}},
			} {
				for _, blk := range [][4]int{
					{0, op.k, 0, op.n},
					{op.k / 3, op.k - op.k/3, op.n / 5, op.n - op.n/5},
					{op.k / 2, (op.k + 3) / 4, op.n / 3, (op.n + 1) / 2},
				} {
					pc, kc, jc, nc := blk[0], blk[1], blk[2], blk[3]
					size := kc * roundUp(nc, nr)
					got, want := make([]int32, size), make([]int32, size)
					for i := range got {
						got[i], want[i] = -1, -2
					}
					op.conv(pc, kc, jc, nc, got)
					packMatB(m, op.rs, op.cs, pc, kc, jc, nc, nr, want)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s pack%s nr=%d block %v: slot %d: got %d want %d",
								cc.name, op.name, nr, blk, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// col2imRef is Col2im's element-by-element loop, the order every dst
// element's adds must keep.
func col2imRef(cols []float32, g ConvGeom, dst []float32) {
	ncols := g.ColCols()
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				src := cols[((c*g.K+kh)*g.K+kw)*ncols:]
				for oh := 0; oh < g.OutH; oh++ {
					for ow := 0; ow < g.OutW; ow++ {
						ih, iw := oh*g.Stride-g.Pad+kh, ow*g.Stride-g.Pad+kw
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							dst[(c*g.InH+ih)*g.InW+iw] += src[oh*g.OutW+ow]
						}
					}
				}
			}
		}
	}
}

// TestCol2imMatchesElementLoop checks Col2im's run-at-a-time stride-1
// rows against the element loop, bit for bit, over a nonzero dst.
func TestCol2imMatchesElementLoop(t *testing.T) {
	for i, cc := range convCases {
		g := cc.geom()
		rng := NewRNG(int64(i))
		cols := make([]float32, g.ColRows()*g.ColCols())
		fillRandF32(rng, cols)
		got := make([]float32, g.InC*g.InH*g.InW)
		fillRandF32(rng, got)
		want := append([]float32(nil), got...)
		Col2im(cols, g, got)
		col2imRef(cols, g, want)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%s: element %d: got %g want %g", cc.name, j, got[j], want[j])
			}
		}
	}
}

// FuzzConvGemm checks ConvGemm, ConvGemmNT and ConvGemmInt over drawn
// geometries against the im2col oracle, bit for bit: C 1–40, H and W
// 1–48, OutC 1–32, K 1–5, stride 1–3 and pad 0–2, with H and W cut to 16
// once the im2col matrix passes 2^19 values. The draws reach
// panels that straddle output rows, C·K·K > 256 (two kc blocks) and
// OH·OW > 1024 (two NC blocks).
func FuzzConvGemm(f *testing.F) {
	// Arguments are (seed, C-1, H-1, W-1, OutC-1, K-1, stride-1, pad).
	for i, cc := range convCases {
		f.Add(int64(i), uint8(cc.c-1), uint8(cc.h-1), uint8(cc.w-1), uint8(cc.outC-1),
			uint8(cc.k-1), uint8(cc.stride-1), uint8(cc.pd))
	}
	f.Fuzz(func(t *testing.T, seed int64, c, h, w, outC, k, stride, pad uint8) {
		inC, kk := 1+int(c)%40, 1+int(k)%5
		st, pd := 1+int(stride)%3, int(pad)%3
		ih, iw := max(1+int(h)%48, kk-2*pd), max(1+int(w)%48, kk-2*pd)
		g := Geometry(inC, ih, iw, 1+int(outC)%32, kk, st, pd)
		if g.ColRows()*g.ColCols() > 1<<19 {
			ih, iw = max(min(ih, 16), kk-2*pd), max(min(iw, 16), kk-2*pd)
			g = Geometry(inC, ih, iw, g.OutC, kk, st, pd)
		}
		checkConvGemm(t, g, seed)
	})
}
