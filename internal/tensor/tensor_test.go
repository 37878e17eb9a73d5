package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad shape bookkeeping: %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewFromLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewFrom([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(2, -1)
	if y.Shape[1] != 12 {
		t.Fatalf("inferred dim = %d, want 12", y.Shape[1])
	}
	y.Data[0] = 7
	if x.Data[0] != 7 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Reshape(3)
}

func TestAt4Set4RoundTrip(t *testing.T) {
	x := New(2, 3, 4, 5)
	x.Set4(1, 2, 3, 4, 42)
	if x.At4(1, 2, 3, 4) != 42 {
		t.Fatal("At4/Set4 disagree")
	}
	// The flat index of the last element must be Len-1.
	if x.Data[x.Len()-1] != 42 {
		t.Fatal("Set4 of last coordinate must hit last flat slot")
	}
}

func TestStatsAndAbsMax(t *testing.T) {
	x := NewFrom([]float32{-3, 1, 2}, 3)
	mn, mx, mean := x.Stats()
	if mn != -3 || mx != 2 || mean != 0 {
		t.Fatalf("Stats = %v %v %v", mn, mx, mean)
	}
	if x.AbsMax() != 3 {
		t.Fatalf("AbsMax = %v, want 3", x.AbsMax())
	}
}

func TestCloneIndependence(t *testing.T) {
	x := NewFrom([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewFrom([]float32{1, 2, 3}, 3)
	b := NewFrom([]float32{4, 5, 6}, 3)
	a.Add(b)
	want := []float32{5, 7, 9}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("Add result %v", a.Data)
		}
	}
	a.Sub(b)
	a.Mul(b)
	want = []float32{4, 10, 18}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("Mul result %v", a.Data)
		}
	}
	a.Scale(0.5)
	if a.Data[2] != 9 {
		t.Fatalf("Scale result %v", a.Data)
	}
	a.AddScaled(2, b)
	if a.Data[0] != 2+8 {
		t.Fatalf("AddScaled result %v", a.Data)
	}
}

func TestClampAndReLU(t *testing.T) {
	x := NewFrom([]float32{-2, 0.5, 3}, 3)
	x.Clamp(0, 1)
	if x.Data[0] != 0 || x.Data[1] != 0.5 || x.Data[2] != 1 {
		t.Fatalf("Clamp result %v", x.Data)
	}
	y := NewFrom([]float32{-1, 2}, 2)
	y.ReLU()
	if y.Data[0] != 0 || y.Data[1] != 2 {
		t.Fatalf("ReLU result %v", y.Data)
	}
}

func TestDiffMetrics(t *testing.T) {
	a := NewFrom([]float32{0, 1, 5}, 3)
	b := NewFrom([]float32{1, 1, 2}, 3)
	if MaxAbsDiff(a, b) != 3 {
		t.Fatalf("MaxAbsDiff = %v", MaxAbsDiff(a, b))
	}
	got := MeanAbsDiff(a, b)
	if math.Abs(float64(got)-4.0/3.0) > 1e-6 {
		t.Fatalf("MeanAbsDiff = %v", got)
	}
}

func TestArgmax(t *testing.T) {
	x := NewFrom([]float32{0, 5, 5, 1}, 4)
	if x.Argmax() != 1 {
		t.Fatal("Argmax must return first maximum")
	}
	m := NewFrom([]float32{1, 9, 3, 0, 2, 7}, 2, 3)
	rows := m.ArgmaxRows()
	if rows[0] != 1 || rows[1] != 2 {
		t.Fatalf("ArgmaxRows = %v", rows)
	}
}

func TestSlice4BatchSharesStorage(t *testing.T) {
	x := New(2, 1, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	s := x.Slice4Batch(1)
	if s.Data[0] != 4 {
		t.Fatalf("Slice4Batch wrong offset: %v", s.Data)
	}
	s.Data[0] = -1
	if x.Data[4] != -1 {
		t.Fatal("Slice4Batch must share storage")
	}
}

func TestGemmSmallKnown(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	Gemm(a, b, c, 2, 2, 2)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("Gemm = %v, want %v", c, want)
		}
	}
}

func TestGemmMatchesNaiveLarge(t *testing.T) {
	rng := NewRNG(7)
	m, k, n := 65, 70, 68 // above the parallel threshold
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.Normal())
	}
	for i := range b {
		b[i] = float32(rng.Normal())
	}
	c := make([]float32, m*n)
	Gemm(a, b, c, m, k, n)
	// Naive reference.
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			if d := math.Abs(float64(s - c[i*n+j])); d > 1e-3 {
				t.Fatalf("Gemm mismatch at (%d,%d): %v vs %v", i, j, c[i*n+j], s)
			}
		}
	}
}

func TestGemmIntMatchesNaive(t *testing.T) {
	rng := NewRNG(3)
	m, k, n := 8, 12, 9
	a := make([]int32, m*k)
	b := make([]int32, k*n)
	for i := range a {
		a[i] = int32(rng.Intn(15) - 7)
	}
	for i := range b {
		b[i] = int32(rng.Intn(15) - 7)
	}
	c := make([]int64, m*n)
	GemmInt(a, b, c, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int64
			for p := 0; p < k; p++ {
				s += int64(a[i*k+p]) * int64(b[p*n+j])
			}
			if s != c[i*n+j] {
				t.Fatalf("GemmInt mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemmIntLargeCodesNoOverflow(t *testing.T) {
	// INT16-scale codes must not overflow thanks to int64 accumulation.
	k := 1024
	a := make([]int32, k)
	b := make([]int32, k)
	for i := range a {
		a[i] = 32767
		b[i] = 32767
	}
	c := make([]int64, 1)
	GemmInt(a, b, c, 1, k, 1)
	want := int64(32767) * 32767 * int64(k)
	if c[0] != want {
		t.Fatalf("GemmInt large = %d, want %d", c[0], want)
	}
}

func TestGeometry(t *testing.T) {
	g := Geometry(3, 32, 32, 16, 3, 1, 1)
	if g.OutH != 32 || g.OutW != 32 {
		t.Fatalf("same-pad geometry wrong: %+v", g)
	}
	g2 := Geometry(16, 32, 32, 32, 3, 2, 1)
	if g2.OutH != 16 || g2.OutW != 16 {
		t.Fatalf("strided geometry wrong: %+v", g2)
	}
	if g.MACsPerOutput() != 27 || g.TotalOutputs() != 16*32*32 {
		t.Fatalf("op counting wrong: %+v", g)
	}
	if g.TotalMACs() != int64(27)*16*32*32 {
		t.Fatalf("TotalMACs wrong")
	}
}

func TestIm2colIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity layout.
	g := Geometry(2, 3, 3, 1, 1, 1, 0)
	src := make([]float32, 2*3*3)
	for i := range src {
		src[i] = float32(i)
	}
	dst := make([]float32, g.ColRows()*g.ColCols())
	Im2col(src, g, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("1x1 im2col should be identity, got %v", dst)
		}
	}
}

func TestIm2colPaddingZeros(t *testing.T) {
	g := Geometry(1, 2, 2, 1, 3, 1, 1)
	src := []float32{1, 2, 3, 4}
	dst := make([]float32, g.ColRows()*g.ColCols())
	Im2col(src, g, dst)
	// Output is 2x2. Top-left kernel tap (kh=0,kw=0) only overlaps
	// in-bounds pixels for output (1,1), where it reads src[0]=1.
	row0 := dst[0:4]
	want := []float32{0, 0, 0, 1}
	for i := range want {
		if row0[i] != want[i] {
			t.Fatalf("padded im2col row0 = %v, want %v", row0, want)
		}
	}
	// Center tap (kh=1,kw=1) reads the image directly.
	rowC := dst[4*4 : 5*4]
	wantC := []float32{1, 2, 3, 4}
	for i := range wantC {
		if rowC[i] != wantC[i] {
			t.Fatalf("center tap = %v, want %v", rowC, wantC)
		}
	}
}

func TestIm2colIntMatchesFloat(t *testing.T) {
	g := Geometry(2, 5, 4, 3, 3, 2, 1)
	n := 2 * 5 * 4
	srcF := make([]float32, n)
	srcI := make([]int32, n)
	rng := NewRNG(11)
	for i := range srcF {
		v := int32(rng.Intn(15) - 7)
		srcI[i] = v
		srcF[i] = float32(v)
	}
	dstF := make([]float32, g.ColRows()*g.ColCols())
	dstI := make([]int32, g.ColRows()*g.ColCols())
	Im2col(srcF, g, dstF)
	Im2colInt(srcI, g, dstI)
	for i := range dstF {
		if float32(dstI[i]) != dstF[i] {
			t.Fatalf("int and float im2col disagree at %d", i)
		}
	}
}

func TestCol2imAdjoint(t *testing.T) {
	// <Im2col(x), y> == <x, Col2im(y)> — the adjoint property that makes
	// conv backprop correct.
	g := Geometry(2, 4, 4, 1, 3, 1, 1)
	rng := NewRNG(5)
	x := make([]float32, 2*4*4)
	for i := range x {
		x[i] = float32(rng.Normal())
	}
	cols := make([]float32, g.ColRows()*g.ColCols())
	Im2col(x, g, cols)
	y := make([]float32, len(cols))
	for i := range y {
		y[i] = float32(rng.Normal())
	}
	var lhs float64
	for i := range cols {
		lhs += float64(cols[i]) * float64(y[i])
	}
	back := make([]float32, len(x))
	Col2im(y, g, back)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(back[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*(math.Abs(lhs)+1) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestIntTensorDequantize(t *testing.T) {
	q := NewInt(4, 0.25, 2, 2)
	q.Data = []int32{0, 1, -2, 4}
	d := q.Dequantize()
	want := []float32{0, 0.25, -0.5, 1}
	for i := range want {
		if d.Data[i] != want[i] {
			t.Fatalf("Dequantize = %v, want %v", d.Data, want)
		}
	}
	c := q.Clone()
	c.Data[0] = 9
	if q.Data[0] != 0 {
		t.Fatal("Clone must copy data")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float32() != b.Float32() {
			t.Fatal("same-seed RNGs must agree")
		}
	}
}

func TestKaimingConvScale(t *testing.T) {
	w := New(64, 16, 3, 3)
	NewRNG(1).KaimingConv(w)
	_, _, mean := w.Stats()
	if math.Abs(float64(mean)) > 0.01 {
		t.Fatalf("Kaiming mean too large: %v", mean)
	}
	std := w.L2() / math.Sqrt(float64(w.Len()))
	want := math.Sqrt(2.0 / (16 * 9))
	if math.Abs(std-want) > want/4 {
		t.Fatalf("Kaiming std %v, want ~%v", std, want)
	}
}

// Property: Gemm with identity A returns B's first rows.
func TestGemmIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 3 + rng.Intn(6)
		a := make([]float32, n*n)
		for i := 0; i < n; i++ {
			a[i*n+i] = 1
		}
		b := make([]float32, n*n)
		for i := range b {
			b[i] = float32(rng.Normal())
		}
		c := make([]float32, n*n)
		Gemm(a, b, c, n, n, n)
		for i := range b {
			if c[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: im2col → GEMM with a delta kernel reproduces the input plane.
func TestConvDeltaKernelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		h := 4 + rng.Intn(4)
		g := Geometry(1, h, h, 1, 3, 1, 1)
		src := make([]float32, h*h)
		for i := range src {
			src[i] = float32(rng.Normal())
		}
		cols := make([]float32, g.ColRows()*g.ColCols())
		Im2col(src, g, cols)
		// Kernel with 1 at the center acts as identity.
		w := make([]float32, 9)
		w[4] = 1
		out := make([]float32, g.ColCols())
		Gemm(w, cols, out, 1, 9, g.ColCols())
		for i := range src {
			if out[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
