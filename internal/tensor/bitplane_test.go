package tensor

import (
	"fmt"
	"sync"
	"testing"
)

// scalarDot is the reference the bitplane kernels must match exactly.
func scalarDot(a, b []int32) int64 {
	var s int64
	for i := range a {
		s += int64(a[i]) * int64(b[i])
	}
	return s
}

// im2colIntT is the packing oracle: the transposed integer column matrix
// [OutH*OutW][C*K*K], each output position's receptive field one
// contiguous row in (c, kh, kw) order — the order of a row-major weight
// row [O][C,K,K] — with zeros for padding taps.
func im2colIntT(src []int32, g ConvGeom, dst []int32) {
	rows := g.ColRows()
	for oh := 0; oh < g.OutH; oh++ {
		for ow := 0; ow < g.OutW; ow++ {
			row := dst[(oh*g.OutW+ow)*rows:]
			idx := 0
			for c := 0; c < g.InC; c++ {
				for kh := 0; kh < g.K; kh++ {
					ih := oh*g.Stride - g.Pad + kh
					for kw := 0; kw < g.K; kw++ {
						iw := ow*g.Stride - g.Pad + kw
						row[idx] = 0
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							row[idx] = src[(c*g.InH+ih)*g.InW+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

// randCodes fills a slice with codes valid for the given plane count and
// signedness.
func randCodes(rng *RNG, n, planes int, signed bool) []int32 {
	out := make([]int32, n)
	span := 1 << uint(planes)
	for i := range out {
		v := int32(rng.Intn(span))
		if signed {
			v -= int32(span / 2)
		}
		out[i] = v
	}
	return out
}

// TestBitplaneDotParity checks BitplaneDot against the scalar dot for
// every plane-count/signedness combination the ODQ splits produce, at
// lane counts covering sub-word, exact-word and tail-word geometries.
func TestBitplaneDotParity(t *testing.T) {
	rng := NewRNG(11)
	lanes := []int{1, 3, 45, 63, 64, 65, 127, 128, 144, 200, 576}
	type side struct {
		planes int
		signed bool
	}
	sides := []side{{1, false}, {2, false}, {2, true}, {3, true}, {4, false}, {4, true}, {5, true}}
	for _, l := range lanes {
		for _, sa := range sides {
			for _, sb := range sides {
				a := randCodes(rng, l, sa.planes, sa.signed)
				b := randCodes(rng, l, sb.planes, sb.signed)
				bpa := NewBitplanes(1, l, sa.planes, sa.signed)
				bpb := NewBitplanes(1, l, sb.planes, sb.signed)
				bpa.PackRow(0, a)
				bpb.PackRow(0, b)
				want := scalarDot(a, b)
				if got := BitplaneDot(bpa, 0, bpb, 0); got != want {
					t.Fatalf("lanes=%d a=%+v b=%+v: BitplaneDot=%d want %d", l, sa, sb, got, want)
				}
			}
		}
	}
}

// TestBitplaneDotExtremes pins the two's-complement corner codes (most
// negative value, all-ones) that a random draw can miss.
func TestBitplaneDotExtremes(t *testing.T) {
	a := []int32{3, 3, 0, 1, 2, 3}     // unsigned 2-plane max values
	b := []int32{-2, 1, -2, -1, 0, -2} // signed 2-plane extremes
	bpa := NewBitplanes(1, len(a), 2, false)
	bpb := NewBitplanes(1, len(b), 2, true)
	bpa.PackRow(0, a)
	bpb.PackRow(0, b)
	if got, want := BitplaneDot(bpa, 0, bpb, 0), scalarDot(a, b); got != want {
		t.Fatalf("extremes: got %d want %d", got, want)
	}
}

// TestBitplaneMulRowParity checks the row-times-matrix kernel on a
// predictor-shaped product (OutC rows x cols positions, 2×2 planes) with
// a tail word, and with zero lanes, where every dot is 0.
func TestBitplaneMulRowParity(t *testing.T) {
	rng := NewRNG(12)
	const outC, cols = 7, 23
	for _, lanes := range []int{99, 0} {
		w := randCodes(rng, outC*lanes, 2, true)
		x := randCodes(rng, cols*lanes, 2, false)
		wbp := NewBitplanes(outC, lanes, 2, true)
		xbp := NewBitplanes(cols, lanes, 2, false)
		wbp.PackRows(w)
		xbp.PackRows(x)
		dst := make([]int64, cols)
		for oc := 0; oc < outC; oc++ {
			for j := range dst {
				dst[j] = -1 // stale scratch
			}
			BitplaneMulRow(dst, wbp, oc, xbp)
			for j := 0; j < cols; j++ {
				want := scalarDot(w[oc*lanes:(oc+1)*lanes], x[j*lanes:(j+1)*lanes])
				if dst[j] != want {
					t.Fatalf("lanes=%d oc=%d j=%d: got %d want %d", lanes, oc, j, dst[j], want)
				}
			}
		}
	}
}

// TestBitplanePackRowOverwrite checks that PackRow fully overwrites dirty
// pooled scratch, including tail-word garbage beyond the last lane.
func TestBitplanePackRowOverwrite(t *testing.T) {
	const lanes = 70 // two words, second mostly tail
	bp := &Bitplanes{R: 1, L: lanes, P: 2, W: BitplaneWords(lanes), Data: GetUint64(BitplaneSize(1, lanes, 2))}
	for i := range bp.Data {
		bp.Data[i] = ^uint64(0) // poison
	}
	src := make([]int32, lanes) // all zero codes
	bp.PackRow(0, src)
	for i, w := range bp.Data {
		if w != 0 {
			t.Fatalf("word %d not cleared: %x", i, w)
		}
	}
	PutUint64(bp.Data)
}

// TestBitplaneDotConcurrent exercises read-shared bitplanes from many
// goroutines (the executor's per-output-channel fan-out) under -race.
func TestBitplaneDotConcurrent(t *testing.T) {
	rng := NewRNG(13)
	const lanes, rows = 144, 32
	codes := randCodes(rng, rows*lanes, 3, true)
	bp := NewBitplanes(rows, lanes, 3, true)
	bp.PackRows(codes)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rows; r++ {
				want := scalarDot(codes[r*lanes:(r+1)*lanes], codes[r*lanes:(r+1)*lanes])
				if got := BitplaneDot(bp, r, bp, r); got != want {
					t.Errorf("row %d: got %d want %d", r, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestBitplanePartialsParity checks the executor's row call against
// scalar dots, on the 4/2 split's plane geometry, across tail-word lane
// counts (zero lanes included) and position counts below, at and past
// one block of eight.
func TestBitplanePartialsParity(t *testing.T) {
	rng := NewRNG(16)
	for _, lanes := range []int{0, 1, 63, 64, 65, 144, 200} {
		for _, cols := range []int{5, 8, 21} {
			const outC = 4
			xhC := randCodes(rng, cols*lanes, 2, false)
			xlC := randCodes(rng, cols*lanes, 3, true)
			whC := randCodes(rng, outC*lanes, 2, true)
			wlC := randCodes(rng, outC*lanes, 3, true)
			xh := NewBitplanes(cols, lanes, 2, false)
			xl := NewBitplanes(cols, lanes, 3, true)
			wh := NewBitplanes(outC, lanes, 2, true)
			wl := NewBitplanes(outC, lanes, 3, true)
			xh.PackRows(xhC)
			xl.PackRows(xlC)
			wh.PackRows(whC)
			wl.PackRows(wlC)
			mask := make([]bool, cols)
			for j := range mask {
				mask[j] = true
			}
			dst := make([]int64, 3*cols)
			for oc := 0; oc < outC; oc++ {
				for i := range dst {
					dst[i] = -1 // stale scratch
				}
				BitplanePartials(dst, xh, xl, wh, wl, oc, mask)
				for j := 0; j < cols; j++ {
					hl, lh, ll := dst[j], dst[cols+j], dst[2*cols+j]
					xhRow := xhC[j*lanes : (j+1)*lanes]
					xlRow := xlC[j*lanes : (j+1)*lanes]
					whRow := whC[oc*lanes : (oc+1)*lanes]
					wlRow := wlC[oc*lanes : (oc+1)*lanes]
					if want := scalarDot(xhRow, wlRow); hl != want {
						t.Fatalf("lanes=%d j=%d oc=%d: hl=%d want %d", lanes, j, oc, hl, want)
					}
					if want := scalarDot(xlRow, whRow); lh != want {
						t.Fatalf("lanes=%d j=%d oc=%d: lh=%d want %d", lanes, j, oc, lh, want)
					}
					if want := scalarDot(xlRow, wlRow); ll != want {
						t.Fatalf("lanes=%d j=%d oc=%d: ll=%d want %d", lanes, j, oc, ll, want)
					}
				}
			}
		}
	}
}

// TestPackConvRowsParity checks the conv packer end to end: rows from
// PackConvRows against weight rows from PackConvWeights, both in
// (kh, kw, c) lane order, must give the scalar dot of the (c, kh, kw)
// im2col row with the unpermuted weight row — through rowProducts and
// BitplanePartials — for kernel-row fields that fill, straddle and span
// words, every kernel size the models use, stride 2, padding 0–2, and
// codes of one byte pass and of two.
func TestPackConvRowsParity(t *testing.T) {
	rng := NewRNG(17)
	type side struct {
		planes int
		signed bool
	}
	sides := []side{{2, false}, {2, true}, {3, false}, {3, true}, {5, false}, {5, true},
		{9, false}, {9, true}, {15, false}, {15, true}}
	for _, inC := range []int{1, 3, 21, 64, 65, 130} {
		for _, k := range []int{1, 3, 5} {
			for pad := 0; pad <= 2; pad++ {
				for _, stride := range []int{1, 2} {
					const outC, h, w = 3, 7, 6
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					g := Geometry(inC, h, w, outC, k, stride, pad)
					rows, cols := g.ColRows(), g.ColCols()
					xT := make([]int32, rows*cols)
					for _, xs := range sides {
						for _, ws := range sides {
							x := randCodes(rng, inC*h*w, xs.planes, xs.signed)
							wc := randCodes(rng, outC*rows, ws.planes, ws.signed)
							im2colIntT(x, g, xT)
							xbp := poisonedBitplanes(cols, rows, xs.planes, xs.signed)
							PackConvRows(x, g, xbp)
							wbp := NewBitplanes(outC, rows, ws.planes, ws.signed)
							wbp.PackConvWeights(wc, inC, k)
							dst := make([]int64, cols)
							for oc := 0; oc < outC; oc++ {
								rowProducts(dst, wbp, oc, xbp)
								for j := 0; j < cols; j++ {
									want := scalarDot(wc[oc*rows:(oc+1)*rows], xT[j*rows:(j+1)*rows])
									if dst[j] != want {
										t.Fatalf("C=%d K=%d s=%d pad=%d x=%+v w=%+v oc=%d j=%d: got %d want %d",
											inC, k, stride, pad, xs, ws, oc, j, dst[j], want)
									}
								}
							}
							PutUint64(xbp.Data)
						}
					}
					// The three executor partials, on the 4/2 split's planes.
					xhC := randCodes(rng, inC*h*w, 2, false)
					xlC := randCodes(rng, inC*h*w, 3, true)
					whC := randCodes(rng, outC*rows, 2, true)
					wlC := randCodes(rng, outC*rows, 3, true)
					xh := poisonedBitplanes(cols, rows, 2, false)
					xl := poisonedBitplanes(cols, rows, 3, true)
					PackConvRows(xhC, g, xh)
					PackConvRows(xlC, g, xl)
					wh := NewBitplanes(outC, rows, 2, true)
					wl := NewBitplanes(outC, rows, 3, true)
					wh.PackConvWeights(whC, inC, k)
					wl.PackConvWeights(wlC, inC, k)
					xhT, xlT := make([]int32, rows*cols), make([]int32, rows*cols)
					im2colIntT(xhC, g, xhT)
					im2colIntT(xlC, g, xlT)
					mask := make([]bool, cols)
					for j := range mask {
						mask[j] = true
					}
					part := make([]int64, 3*cols)
					for oc := 0; oc < outC; oc++ {
						BitplanePartials(part, xh, xl, wh, wl, oc, mask)
						for j := 0; j < cols; j++ {
							hl, lh, ll := part[j], part[cols+j], part[2*cols+j]
							xhRow, xlRow := xhT[j*rows:(j+1)*rows], xlT[j*rows:(j+1)*rows]
							whRow, wlRow := whC[oc*rows:(oc+1)*rows], wlC[oc*rows:(oc+1)*rows]
							if hl != scalarDot(xhRow, wlRow) || lh != scalarDot(xlRow, whRow) || ll != scalarDot(xlRow, wlRow) {
								t.Fatalf("C=%d K=%d s=%d pad=%d j=%d oc=%d: partials (%d,%d,%d) want (%d,%d,%d)",
									inC, k, stride, pad, j, oc, hl, lh, ll,
									scalarDot(xhRow, wlRow), scalarDot(xlRow, whRow), scalarDot(xlRow, wlRow))
							}
						}
					}
					PutUint64(xh.Data)
					PutUint64(xl.Data)
				}
			}
		}
	}
}

// FuzzPackConvRows checks PackConvRows over drawn geometries: C 1–130,
// K 1–5, stride 1–3, pad 0–2, H and W 1–32 (at most 12 once C·H·W
// passes 2^14, to keep each input cheap), 1–15 planes and either
// signedness. Rows packed over poisoned scratch, times weight rows of the
// same plane count through rowProducts, must equal the scalar dots of
// the im2colIntT oracle.
func FuzzPackConvRows(f *testing.F) {
	// Arguments are (seed, C-1, K-1, stride-1, pad, H-1, W-1, planes-1,
	// signed).
	for _, s := range []struct {
		c, k, stride, pad, hw, planes uint8
		signed                        bool
	}{
		{7, 2, 0, 1, 31, 1, false},  // ResNet-20 stage 1 (C 8), high codes
		{7, 2, 0, 1, 31, 2, true},   // and low codes
		{15, 2, 1, 1, 15, 1, false}, // stage 2 (C 16), stride 2
		{15, 0, 1, 0, 15, 2, true},  // stage-2 shortcut, K 1
		{31, 2, 0, 1, 7, 1, false},  // stage 3 (C 32): 96-lane fields
		{31, 0, 1, 0, 7, 2, true},   // stage-3 shortcut, K 1
		{5, 4, 0, 0, 11, 3, false},  // LeNet conv2 (C 6, K 5)
		{2, 2, 0, 1, 9, 8, false},   // 9 planes: two byte passes
		{20, 2, 2, 2, 8, 14, true},  // 15 planes, stride 3
		{64, 0, 0, 0, 5, 1, false},  // 65-lane fields
		{129, 4, 1, 2, 6, 4, true},  // 650-lane fields, pad 2
		{63, 1, 2, 0, 4, 0, false},  // 1 plane, 128-lane fields
	} {
		f.Add(int64(s.c)*7+int64(s.planes), s.c, s.k, s.stride, s.pad, s.hw, s.hw, s.planes, s.signed)
	}
	f.Fuzz(func(t *testing.T, seed int64, c, k, stride, pad, h, w, planes uint8, signed bool) {
		inC, kk := 1+int(c)%130, 1+int(k)%5
		st, pd := 1+int(stride)%3, int(pad)%3
		ih, iw := 1+int(h)%32, 1+int(w)%32
		ih, iw = max(ih, kk-2*pd), max(iw, kk-2*pd)
		if inC*ih*iw > 1<<14 {
			ih, iw = min(ih, 12), min(iw, 12)
			ih, iw = max(ih, kk-2*pd), max(iw, kk-2*pd)
		}
		pl := 1 + int(planes)%15
		const outC = 3
		g := Geometry(inC, ih, iw, outC, kk, st, pd)
		rows, cols := g.ColRows(), g.ColCols()
		rng := NewRNG(seed)
		x := randCodes(rng, inC*ih*iw, pl, signed)
		wc := randCodes(rng, outC*rows, pl, true)
		xT := make([]int32, rows*cols)
		im2colIntT(x, g, xT)
		xbp := poisonedBitplanes(cols, rows, pl, signed)
		PackConvRows(x, g, xbp)
		wbp := NewBitplanes(outC, rows, pl, true)
		wbp.PackConvWeights(wc, inC, kk)
		dst := make([]int64, cols)
		for oc := 0; oc < outC; oc++ {
			rowProducts(dst, wbp, oc, xbp)
			for j := 0; j < cols; j++ {
				if want := scalarDot(wc[oc*rows:(oc+1)*rows], xT[j*rows:(j+1)*rows]); dst[j] != want {
					t.Fatalf("C=%d K=%d s=%d pad=%d %dx%d planes=%d signed=%v oc=%d j=%d: got %d want %d",
						inC, kk, st, pd, ih, iw, pl, signed, oc, j, dst[j], want)
				}
			}
		}
		PutUint64(xbp.Data)
	})
}

// rowProducts sets dst[j] = dot(a[ra], b[j]) for every row j of b: through
// BitplaneMulRow on 2×2 planes, the one geometry it runs, and through
// BitplaneDot on any other, so the packer tests reach every plane count.
func rowProducts(dst []int64, a *Bitplanes, ra int, b *Bitplanes) {
	if a.P == 2 && b.P == 2 {
		BitplaneMulRow(dst, a, ra, b)
		return
	}
	for j := 0; j < b.R; j++ {
		dst[j] = BitplaneDot(a, ra, b, j)
	}
}

// poisonedBitplanes returns a Bitplanes over pooled scratch filled with
// ones, so a packer that fails to overwrite every word is caught.
func poisonedBitplanes(rows, lanes, planes int, signed bool) *Bitplanes {
	bp := &Bitplanes{R: rows, L: lanes, P: planes, W: BitplaneWords(lanes), Signed: signed,
		Data: GetUint64(BitplaneSize(rows, lanes, planes))}
	for i := range bp.Data {
		bp.Data[i] = ^uint64(0)
	}
	return bp
}

// BenchmarkBitplaneKernels times one sample-layer of each row kernel at
// the half-width ResNet-20 stage shapes (positions, words per plane,
// OutC): the predictor (BitplaneMulRow over every output channel) and
// the executor (BitplanePartials over every output channel) under iid
// masks at 24 % and 69 % density, on each kernel set.
func BenchmarkBitplaneKernels(b *testing.B) {
	shapes := []struct {
		name              string
		rows, lanes, outC int
	}{{"s1", 1024, 72, 8}, {"s2", 256, 144, 16}, {"s3", 64, 288, 32}}
	sets := []struct {
		name   string
		vector bool
	}{{"avx512", true}, {"scalar", false}}
	defer func(v bool) { useAsmPopcnt = v }(useAsmPopcnt)
	for _, set := range sets {
		if set.vector && !haveAVX512Popcnt {
			continue
		}
		useAsmPopcnt = set.vector
		for _, sh := range shapes {
			rng := NewRNG(20)
			pack := func(r, planes int, signed bool) *Bitplanes {
				bp := NewBitplanes(r, sh.lanes, planes, signed)
				bp.PackRows(randCodes(rng, r*sh.lanes, planes, signed))
				return bp
			}
			xh, xl := pack(sh.rows, 2, false), pack(sh.rows, 3, true)
			wh, wl := pack(sh.outC, 2, true), pack(sh.outC, 3, true)
			dst := make([]int64, 3*sh.rows)
			b.Run(set.name+"/"+sh.name+"/predictor", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for oc := 0; oc < sh.outC; oc++ {
						BitplaneMulRow(dst, wh, oc, xh)
					}
				}
			})
			for _, density := range []int{24, 69} {
				mask := make([]bool, sh.outC*sh.rows)
				for i := range mask {
					mask[i] = rng.Intn(100) < density
				}
				b.Run(fmt.Sprintf("%s/%s/executor%d", set.name, sh.name, density), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for oc := 0; oc < sh.outC; oc++ {
							BitplanePartials(dst, xh, xl, wh, wl, oc, mask[oc*sh.rows:(oc+1)*sh.rows])
						}
					}
				})
			}
		}
	}
}

func BenchmarkScalarDotInt(b *testing.B) {
	rng := NewRNG(15)
	const lanes = 576
	a := randCodes(rng, lanes, 2, false)
	w := randCodes(rng, lanes, 2, true)
	b.SetBytes(int64(lanes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarDot(a, w)
	}
}

// BenchmarkPackConvRows packs one sample at the first-stage shape of the
// half-width ResNet-20 (C=8, 32×32, 3×3, pad 1) for the 2-plane high and
// 3-plane low codes.
func BenchmarkPackConvRows(b *testing.B) {
	rng := NewRNG(18)
	for _, c := range []int{8, 32} {
		for _, pl := range []struct {
			planes int
			signed bool
		}{{2, false}, {3, true}} {
			hw := 32 * 8 / c
			g := Geometry(c, hw, hw, c, 3, 1, 1)
			x := randCodes(rng, c*hw*hw, pl.planes, pl.signed)
			bp := NewBitplanes(g.ColCols(), g.ColRows(), pl.planes, pl.signed)
			b.Run(fmt.Sprintf("C%d/P%d", c, pl.planes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					PackConvRows(x, g, bp)
				}
			})
		}
	}
}

// TestBitplaneKernelsMatchScalar runs each kernel set — the AVX-512
// kernels and the scalar ones, switched through useAsmPopcnt — against
// the generic BitplaneDot: the predictor row (2×2 planes, every
// signedness) and the fused executor row on the paper-default split, at
// 1–70 positions (every tail of an eight-row block) and 1–20 words per
// plane, with corner codes mixed in and masks that are all false, all
// true, iid, and alternating by block. A block with no sensitive position
// must be left as it was.
func TestBitplaneKernelsMatchScalar(t *testing.T) {
	for _, set := range []struct {
		name   string
		vector bool
	}{{"avx512", true}, {"scalar", false}} {
		t.Run(set.name, func(t *testing.T) {
			if set.vector && !haveAVX512Popcnt {
				t.Skip("this CPU lacks AVX512F or AVX512_VPOPCNTDQ (or the OS has not enabled ZMM state): only the scalar kernels run here")
			}
			defer func(v bool) { useAsmPopcnt = v }(useAsmPopcnt)
			useAsmPopcnt = set.vector
			checkBitplaneKernels(t)
		})
	}
}

// cornerCodes is randCodes with half the codes drawn from the range's
// corners (minimum, maximum, -1 or 0).
func cornerCodes(rng *RNG, n, planes int, signed bool) []int32 {
	out := randCodes(rng, n, planes, signed)
	lo, hi := int32(0), int32(1)<<uint(planes)-1
	if signed {
		lo, hi = -(hi+1)/2, hi/2
	}
	corners := []int32{lo, hi, -1, 0}
	if !signed {
		corners[2] = hi
	}
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = corners[rng.Intn(len(corners))]
		}
	}
	return out
}

func checkBitplaneKernels(t *testing.T) {
	rng := NewRNG(19)
	const outC, poison = 2, int64(-1) << 62
	btoi := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	pools := map[[2]int][]int32{}
	for _, g := range [][2]int{{2, 0}, {2, 1}, {3, 1}} {
		pools[g] = cornerCodes(rng, 71*20*64, g[0], g[1] == 1)
	}
	for rows := 1; rows <= 70; rows++ {
		for words := 1; words <= 20; words++ {
			if rows > 17 && words > 3 && (rows+words)%5 != 0 {
				continue // a fifth of the larger shapes keeps the test quick
			}
			lanes := 64*(words-1) + 1 + rng.Intn(64)
			// Each operand packs a window of one code pool per plane
			// geometry, with one row set all to the maximum code.
			pack := func(r, planes int, signed bool) *Bitplanes {
				pool := pools[[2]int{planes, btoi(signed)}]
				codes := make([]int32, r*lanes)
				copy(codes, pool[rng.Intn(len(pool)-len(codes)):])
				hot := codes[rng.Intn(r)*lanes:][:lanes]
				for i := range hot {
					hot[i] = int32(1)<<uint(planes-btoi(signed)) - 1
				}
				bp := NewBitplanes(r, lanes, planes, signed)
				bp.PackRows(codes)
				return bp
			}
			xh, xl := pack(rows, 2, false), pack(rows, 3, true)
			wh, wl := pack(outC, 2, true), pack(outC, 3, true)
			xs := pack(rows, 2, true)

			// Predictor rows, every signedness of the two operands.
			dst := make([]int64, rows)
			for _, pair := range [][2]*Bitplanes{{wh, xh}, {wh, xs}, {xh, xs}, {xs, xh}} {
				a, b := pair[0], pair[1]
				for ra := 0; ra < min(a.R, 3); ra++ {
					BitplaneMulRow(dst, a, ra, b)
					for j := 0; j < rows; j++ {
						if want := BitplaneDot(a, ra, b, j); dst[j] != want {
							t.Fatalf("rows=%d words=%d signed=%v/%v ra=%d j=%d: predictor %d want %d",
								rows, words, a.Signed, b.Signed, ra, j, dst[j], want)
						}
					}
				}
			}

			// Executor rows under each mask.
			masks := []struct {
				name string
				fill func(j int) bool
			}{
				{"none", func(int) bool { return false }},
				{"all", func(int) bool { return true }},
				{"iid", func(int) bool { return rng.Intn(10) < 3 }},
				{"alternate", func(j int) bool { return (j/8)%2 == 1 }},
			}
			mask := make([]bool, rows)
			part := make([]int64, 3*rows)
			for _, mk := range masks {
				name, fill := mk.name, mk.fill
				for j := range mask {
					mask[j] = fill(j)
				}
				for oc := 0; oc < outC; oc++ {
					for i := range part {
						part[i] = poison
					}
					BitplanePartials(part, xh, xl, wh, wl, oc, mask)
					for j := 0; j < rows; j++ {
						got := [3]int64{part[j], part[rows+j], part[2*rows+j]}
						if mask[j] {
							want := [3]int64{BitplaneDot(xh, j, wl, oc), BitplaneDot(xl, j, wh, oc), BitplaneDot(xl, j, wl, oc)}
							if got != want {
								t.Fatalf("rows=%d words=%d mask=%s oc=%d j=%d: partials %v want %v",
									rows, words, name, oc, j, got, want)
							}
							continue
						}
						blockSensitive := false
						for _, m := range mask[j&^7 : min(j&^7+8, rows)] {
							blockSensitive = blockSensitive || m
						}
						if !blockSensitive && got != [3]int64{poison, poison, poison} {
							t.Fatalf("rows=%d words=%d mask=%s oc=%d j=%d: insensitive block written: %v",
								rows, words, name, oc, j, got)
						}
					}
				}
			}
		}
	}
}

// TestBitplaneKernelsShortData checks that both row kernels, on each
// kernel set, panic before writing anything when an operand's Data is one
// word shorter than its geometry: the assembly reads through raw
// pointers, so the check must come before it runs.
func TestBitplaneKernelsShortData(t *testing.T) {
	defer func(v bool) { useAsmPopcnt = v }(useAsmPopcnt)
	const rows, lanes = 16, 100
	mask := make([]bool, rows)
	for i := range mask {
		mask[i] = true
	}
	dst := make([]int64, 3*rows)
	calls := []struct {
		name  string
		reads []int // the operands (xh, xl, wh, wl) the kernel reads
		kern  func(xh, xl, wh, wl *Bitplanes)
	}{
		{"BitplaneMulRow", []int{0, 2}, func(xh, _, wh, _ *Bitplanes) { BitplaneMulRow(dst, wh, 1, xh) }},
		{"BitplanePartials", []int{0, 1, 2, 3}, func(xh, xl, wh, wl *Bitplanes) { BitplanePartials(dst, xh, xl, wh, wl, 1, mask) }},
	}
	for _, vector := range []bool{true, false} {
		if vector && !haveAVX512Popcnt {
			continue
		}
		useAsmPopcnt = vector
		for _, c := range calls {
			for _, short := range c.reads {
				op := []*Bitplanes{NewBitplanes(rows, lanes, 2, false), NewBitplanes(rows, lanes, 3, true),
					NewBitplanes(2, lanes, 2, true), NewBitplanes(2, lanes, 3, true)}
				op[short].Data = op[short].Data[:len(op[short].Data)-1]
				panicsBeforeWrite(t, fmt.Sprintf("vector=%v %s: operand %d one word short", vector, c.name, short), dst,
					func() { c.kern(op[0], op[1], op[2], op[3]) })
			}
		}
	}
}

// panicsBeforeWrite fails t unless kern panics, and if kern wrote any
// entry of dst first; dst is poisoned before the call.
func panicsBeforeWrite(t *testing.T, label string, dst []int64, kern func()) {
	t.Helper()
	const poison = int64(-7)
	for i := range dst {
		dst[i] = poison
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: did not panic", label)
			}
		}()
		kern()
	}()
	for i, v := range dst {
		if v != poison {
			t.Fatalf("%s: dst[%d] written before the panic", label, i)
		}
	}
}

// TestBitplaneKernelsOtherSplitsPanic checks that both row calls, on each
// kernel set, run only the 4/2 split's planes: the predictor row on 2×2
// planes and the executor row on 2-plane unsigned xh, 2-plane signed wh
// and 3-plane signed xl and wl. Any other plane count or signedness must
// panic before anything is written: core runs every other split on the
// int-GEMM path.
func TestBitplaneKernelsOtherSplitsPanic(t *testing.T) {
	defer func(v bool) { useAsmPopcnt = v }(useAsmPopcnt)
	const rows, lanes = 16, 100
	mask := make([]bool, rows)
	for i := range mask {
		mask[i] = true
	}
	dst := make([]int64, 3*rows)
	type planes struct {
		p      int
		signed bool
	}
	pack := func(r int, pl planes) *Bitplanes { return NewBitplanes(r, lanes, pl.p, pl.signed) }
	type call struct {
		name string
		kern func()
	}
	var calls []call
	for _, pair := range [][2]planes{{{4, true}, {4, false}}, {{2, true}, {3, false}}, {{3, true}, {2, false}}, {{1, true}, {2, false}}} {
		wh, xh := pack(2, pair[0]), pack(rows, pair[1])
		calls = append(calls, call{fmt.Sprintf("BitplaneMulRow %v", pair), func() { BitplaneMulRow(dst, wh, 1, xh) }})
	}
	for _, g := range [][4]planes{ // xh, xl, wh, wl
		{{4, false}, {5, true}, {4, true}, {5, true}},  // the 8/4 split
		{{3, false}, {4, true}, {3, true}, {4, true}},  // 6/3
		{{2, true}, {3, true}, {2, true}, {3, true}},   // signed xh
		{{2, false}, {3, true}, {2, false}, {3, true}}, // unsigned wh
		{{2, false}, {2, true}, {2, true}, {3, true}},  // 2-plane xl
	} {
		xh, xl, wh, wl := pack(rows, g[0]), pack(rows, g[1]), pack(2, g[2]), pack(2, g[3])
		calls = append(calls, call{fmt.Sprintf("BitplanePartials %v", g), func() { BitplanePartials(dst, xh, xl, wh, wl, 1, mask) }})
	}
	for _, vector := range []bool{true, false} {
		if vector && !haveAVX512Popcnt {
			continue
		}
		useAsmPopcnt = vector
		for _, c := range calls {
			panicsBeforeWrite(t, fmt.Sprintf("vector=%v %s", vector, c.name), dst, c.kern)
		}
	}
}
