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
// predictor-shaped product (OutC rows x cols positions) with a tail word.
func TestBitplaneMulRowParity(t *testing.T) {
	rng := NewRNG(12)
	const lanes, outC, cols = 99, 7, 23
	w := randCodes(rng, outC*lanes, 2, true)
	x := randCodes(rng, cols*lanes, 2, false)
	wbp := NewBitplanes(outC, lanes, 2, true)
	xbp := NewBitplanes(cols, lanes, 2, false)
	wbp.PackRows(w)
	xbp.PackRows(x)
	dst := make([]int64, cols)
	for oc := 0; oc < outC; oc++ {
		BitplaneMulRow(dst, wbp, oc, xbp)
		for j := 0; j < cols; j++ {
			want := scalarDot(w[oc*lanes:(oc+1)*lanes], x[j*lanes:(j+1)*lanes])
			if dst[j] != want {
				t.Fatalf("oc=%d j=%d: got %d want %d", oc, j, dst[j], want)
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

// TestBitplaneDot3Parity checks the fused three-partial executor kernel
// against scalar dots, on the paper-default plane geometry (fused path)
// and on the INT8-extension geometry (fallback path), across tail-word
// lane counts.
func TestBitplaneDot3Parity(t *testing.T) {
	rng := NewRNG(16)
	type geom struct {
		xhP, xlP int
	}
	for _, g := range []geom{{2, 3}, {4, 5}} {
		for _, lanes := range []int{1, 63, 64, 65, 144, 200} {
			const cols, outC = 5, 4
			xhC := randCodes(rng, cols*lanes, g.xhP, false)
			xlC := randCodes(rng, cols*lanes, g.xlP, true)
			whC := randCodes(rng, outC*lanes, g.xhP, true)
			wlC := randCodes(rng, outC*lanes, g.xlP, true)
			xh := NewBitplanes(cols, lanes, g.xhP, false)
			xl := NewBitplanes(cols, lanes, g.xlP, true)
			wh := NewBitplanes(outC, lanes, g.xhP, true)
			wl := NewBitplanes(outC, lanes, g.xlP, true)
			xh.PackRows(xhC)
			xl.PackRows(xlC)
			wh.PackRows(whC)
			wl.PackRows(wlC)
			for j := 0; j < cols; j++ {
				for oc := 0; oc < outC; oc++ {
					hl, lh, ll := BitplaneDot3(xh, xl, j, wh, wl, oc)
					xhRow := xhC[j*lanes : (j+1)*lanes]
					xlRow := xlC[j*lanes : (j+1)*lanes]
					whRow := whC[oc*lanes : (oc+1)*lanes]
					wlRow := wlC[oc*lanes : (oc+1)*lanes]
					if want := scalarDot(xhRow, wlRow); hl != want {
						t.Fatalf("planes=%v lanes=%d j=%d oc=%d: hl=%d want %d", g, lanes, j, oc, hl, want)
					}
					if want := scalarDot(xlRow, whRow); lh != want {
						t.Fatalf("planes=%v lanes=%d j=%d oc=%d: lh=%d want %d", g, lanes, j, oc, lh, want)
					}
					if want := scalarDot(xlRow, wlRow); ll != want {
						t.Fatalf("planes=%v lanes=%d j=%d oc=%d: ll=%d want %d", g, lanes, j, oc, ll, want)
					}
				}
			}
		}
	}
}

// TestPackConvRowsParity checks the conv packer end to end: rows from
// PackConvRows against weight rows from PackConvWeights, both in
// (kh, kw, c) lane order, must give the scalar dot of the (c, kh, kw)
// im2col row with the unpermuted weight row — through BitplaneMulRow and
// BitplaneDot3 — for kernel-row fields that fill, straddle and span
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
								BitplaneMulRow(dst, wbp, oc, xbp)
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
					// The three executor partials, on the fused ODQ geometry
					// and on the generic fallback.
					for _, pl := range []struct{ hiP, loP int }{{2, 3}, {5, 5}} {
						xhC := randCodes(rng, inC*h*w, pl.hiP, false)
						xlC := randCodes(rng, inC*h*w, pl.loP, true)
						whC := randCodes(rng, outC*rows, pl.hiP, true)
						wlC := randCodes(rng, outC*rows, pl.loP, true)
						xh := poisonedBitplanes(cols, rows, pl.hiP, false)
						xl := poisonedBitplanes(cols, rows, pl.loP, true)
						PackConvRows(xhC, g, xh)
						PackConvRows(xlC, g, xl)
						wh := NewBitplanes(outC, rows, pl.hiP, true)
						wl := NewBitplanes(outC, rows, pl.loP, true)
						wh.PackConvWeights(whC, inC, k)
						wl.PackConvWeights(wlC, inC, k)
						xhT, xlT := make([]int32, rows*cols), make([]int32, rows*cols)
						im2colIntT(xhC, g, xhT)
						im2colIntT(xlC, g, xlT)
						for j := 0; j < cols; j++ {
							for oc := 0; oc < outC; oc++ {
								hl, lh, ll := BitplaneDot3(xh, xl, j, wh, wl, oc)
								xhRow, xlRow := xhT[j*rows:(j+1)*rows], xlT[j*rows:(j+1)*rows]
								whRow, wlRow := whC[oc*rows:(oc+1)*rows], wlC[oc*rows:(oc+1)*rows]
								if hl != scalarDot(xhRow, wlRow) || lh != scalarDot(xlRow, whRow) || ll != scalarDot(xlRow, wlRow) {
									t.Fatalf("C=%d K=%d s=%d pad=%d planes=%+v j=%d oc=%d: Dot3 (%d,%d,%d) want (%d,%d,%d)",
										inC, k, stride, pad, pl, j, oc, hl, lh, ll,
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
}

// FuzzPackConvRows checks PackConvRows over drawn geometries: C 1–130,
// K 1–5, stride 1–3, pad 0–2, H and W 1–32 (at most 12 once C·H·W
// passes 2^14, to keep each input cheap), 1–15 planes and either
// signedness. Rows packed over poisoned scratch, times weight rows of the
// same plane count through BitplaneMulRow, must equal the scalar dots of
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
			BitplaneMulRow(dst, wbp, oc, xbp)
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

func BenchmarkBitplaneDot2x2(b *testing.B) {
	rng := NewRNG(14)
	const lanes = 576
	a := randCodes(rng, lanes, 2, false)
	w := randCodes(rng, lanes, 2, true)
	bpa := NewBitplanes(1, lanes, 2, false)
	bpw := NewBitplanes(1, lanes, 2, true)
	bpa.PackRow(0, a)
	bpw.PackRow(0, w)
	b.SetBytes(int64(lanes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BitplaneDot(bpa, 0, bpw, 0)
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
