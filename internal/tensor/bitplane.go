package tensor

import (
	"fmt"
	"math/bits"
)

// Bitplanes is a bit-planar integer-code matrix: R logical rows of L lanes
// each, with every row stored as P uint64 bitplanes of W = ceil(L/64)
// words. Plane p of row r occupies Data[(r*P+p)*W : (r*P+p+1)*W]; lane l
// maps to bit l&63 of word l>>6. Unused tail bits of the last word are
// kept zero by the packers, so kernels can run whole words without masking.
//
// The layout is the software analogue of a multi-precision PE array: a
// dot product between two bit-planar rows decomposes into one AND+POPCNT
// reduction per plane pair, weighted by 2^(i+j) with the usual
// two's-complement sign on the top plane of a Signed operand. Because
// every plane-pair reduction is exact integer arithmetic, bitplane dot
// products are bit-identical to the widened int32 multiply-accumulate
// they replace.
type Bitplanes struct {
	R, L, P, W int
	// Signed marks two's-complement codes: the top plane carries weight
	// -(2^(P-1)) instead of +(2^(P-1)).
	Signed bool
	Data   []uint64
}

// BitplaneWords returns the uint64 words needed per plane for `lanes`
// lanes.
func BitplaneWords(lanes int) int { return (lanes + 63) / 64 }

// BitplaneSize returns the Data length a Bitplanes with the given
// geometry requires (rows * planes * words).
func BitplaneSize(rows, lanes, planes int) int {
	return rows * planes * BitplaneWords(lanes)
}

// NewBitplanes allocates a zeroed bit-planar matrix. Hot paths instead
// construct a Bitplanes value over pooled scratch from GetUint64 (PackRow
// and PackConvRows fully overwrite their rows, so dirty buffers are fine).
func NewBitplanes(rows, lanes, planes int, signed bool) *Bitplanes {
	return &Bitplanes{
		R: rows, L: lanes, P: planes, W: BitplaneWords(lanes),
		Signed: signed,
		Data:   make([]uint64, BitplaneSize(rows, lanes, planes)),
	}
}

// PackRow packs row r from the first L values of src. Unsigned codes must
// lie in [0, 2^P-1]; signed codes in [-2^(P-1), 2^(P-1)-1] (the masked
// two's-complement truncation encodes them exactly in P planes). Values
// outside that range would alias, so callers quantize/clamp first — the
// ODQ splits do by construction.
func (bp *Bitplanes) PackRow(r int, src []int32) {
	if len(src) < bp.L {
		panic(fmt.Sprintf("tensor: PackRow src %d lanes, want %d", len(src), bp.L))
	}
	row := bp.Data[r*bp.P*bp.W : (r+1)*bp.P*bp.W]
	clear(row)
	mask := uint32(1)<<uint(bp.P) - 1
	for l := 0; l < bp.L; l++ {
		u := uint32(src[l]) & mask
		if u == 0 {
			continue
		}
		w, bit := l>>6, uint(l&63)
		for p := 0; p < bp.P; p++ {
			row[p*bp.W+w] |= uint64((u>>uint(p))&1) << bit
		}
	}
}

// PackRows packs all R rows from row-major src (R*L values).
func (bp *Bitplanes) PackRows(src []int32) {
	for r := 0; r < bp.R; r++ {
		bp.PackRow(r, src[r*bp.L:(r+1)*bp.L])
	}
}

// PackConvWeights packs conv weight codes laid out [R][C][K][K] (R output
// channels, L = C·K·K lanes) with each row permuted into the (kh, kw, c)
// lane order of PackConvRows, so a weight row and an activation row dot
// lane for lane.
func (bp *Bitplanes) PackConvWeights(src []int32, inC, k int) {
	kk := k * k
	if bp.L != inC*kk || len(src) < bp.R*bp.L {
		panic(fmt.Sprintf("tensor: PackConvWeights %d lanes for C=%d K=%d, src %d", bp.L, inC, k, len(src)))
	}
	row := make([]int32, bp.L)
	for r := 0; r < bp.R; r++ {
		w := src[r*bp.L : (r+1)*bp.L]
		for c := 0; c < inC; c++ {
			for t := 0; t < kk; t++ {
				row[t*inC+c] = w[c*kk+t]
			}
		}
		bp.PackRow(r, row)
	}
}

// PackConvRows is the bitplane im2col: it packs one sample's activation
// codes src (layout [C,H,W]) into dst, one row per output position
// (dst.R = g.ColCols()) of g.ColRows() lanes in (kh, kw, c) order. Each
// input pixel's C channel codes are packed once per plane into a C-bit
// chunk of ⌈C/64⌉ words — O(C·H·W) bit work — and each row is then
// assembled from its K·K chunks by shift/OR into zeroed words, a chunk
// that straddles a word boundary spilling into the next word. Padding
// pixels contribute nothing. dst.P and dst.Signed give the code range as
// for PackRow; dst may hold dirty pooled scratch.
func PackConvRows(src []int32, g ConvGeom, dst *Bitplanes) {
	if dst.R != g.ColCols() || dst.L != g.ColRows() || len(src) < g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: PackConvRows dst %dx%d, want %dx%d", dst.R, dst.L, g.ColCols(), g.ColRows()))
	}
	planes, w := dst.P, dst.W
	cw := BitplaneWords(g.InC)
	pixStride := planes * cw
	chunks := GetUint64(g.InH * g.InW * pixStride)
	packPixelChunks(chunks, src, g.InC, g.InH*g.InW, planes, cw)

	rowLen := planes * w
	pos := 0
	for oh := 0; oh < g.OutH; oh++ {
		ihBase := oh*g.Stride - g.Pad
		for ow := 0; ow < g.OutW; ow++ {
			iwBase := ow*g.Stride - g.Pad
			row := dst.Data[pos*rowLen : (pos+1)*rowLen]
			clear(row)
			for kh := 0; kh < g.K; kh++ {
				ih := ihBase + kh
				if ih < 0 || ih >= g.InH {
					continue
				}
				for kw := 0; kw < g.K; kw++ {
					iw := iwBase + kw
					if iw < 0 || iw >= g.InW {
						continue
					}
					lane := (kh*g.K + kw) * g.InC
					wi, sh := lane>>6, uint(lane&63)
					pix := (ih*g.InW + iw) * pixStride
					// A shift of 64 yields 0, so an aligned chunk never
					// spills; a nonzero spill always has a next word in
					// its plane to land in.
					if cw == 1 {
						// Single-word chunks (C ≤ 64), the common case,
						// without the per-plane word loop.
						for p, v := range chunks[pix : pix+planes] {
							o := p*w + wi
							row[o] |= v << sh
							if hi := v >> (64 - sh); hi != 0 {
								row[o+1] |= hi
							}
						}
						continue
					}
					for p := 0; p < planes; p++ {
						prow := row[p*w : (p+1)*w]
						for k, v := range chunks[pix+p*cw : pix+(p+1)*cw] {
							prow[wi+k] |= v << sh
							if hi := v >> (64 - sh); hi != 0 {
								prow[wi+k+1] |= hi
							}
						}
					}
				}
			}
			pos++
		}
	}
	PutUint64(chunks)
}

// packPixelChunks writes, for every pixel i of a [c, hw] code plane set,
// its c channel codes as `planes` bitplane chunks of cw words each at
// dst[(i*planes+p)*cw:], channel ch on bit ch&63 of word ch>>6.
func packPixelChunks(dst []uint64, src []int32, c, hw, planes, cw int) {
	clear(dst)
	mask := uint32(1)<<uint(planes) - 1
	stride := planes * cw
	for ch := 0; ch < c; ch++ {
		word, bit := ch>>6, uint(ch&63)
		for i, code := range src[ch*hw : (ch+1)*hw] {
			u := uint64(uint32(code) & mask)
			if u == 0 {
				continue
			}
			d := dst[i*stride+word:]
			for p := 0; p < planes; p++ {
				d[p*cw] |= (u >> uint(p) & 1) << bit
			}
		}
	}
}

// planeWeight returns the signed weight of plane p.
func planeWeight(p, planes int, signed bool) int64 {
	w := int64(1) << uint(p)
	if signed && p == planes-1 {
		return -w
	}
	return w
}

// BitplaneDot returns the exact integer dot product of row ra of a with
// row rb of b: sum over lanes of a[ra][l]*b[rb][l], reconstructed as
// plane-weighted AND+POPCNT reductions.
func BitplaneDot(a *Bitplanes, ra int, b *Bitplanes, rb int) int64 {
	if a.W != b.W || a.L != b.L {
		panic("tensor: BitplaneDot lane geometry mismatch")
	}
	w := a.W
	arow := a.Data[ra*a.P*w : (ra+1)*a.P*w]
	brow := b.Data[rb*b.P*w : (rb+1)*b.P*w]
	if a.P == 2 && b.P == 2 {
		return dot2x2(arow, brow, w, a.Signed, b.Signed)
	}
	var total int64
	for i := 0; i < a.P; i++ {
		wi := planeWeight(i, a.P, a.Signed)
		ai := arow[i*w : (i+1)*w]
		for j := 0; j < b.P; j++ {
			bj := brow[j*w : (j+1)*w]
			var pc int
			for k, av := range ai {
				pc += bits.OnesCount64(av & bj[k])
			}
			total += wi * planeWeight(j, b.P, b.Signed) * int64(pc)
		}
	}
	return total
}

// dot2x2 is the fused kernel for the paper-default 2-bit×2-bit case (the
// HBS×HBS sensitivity predictor): four AND+POPCNT streams in one pass.
func dot2x2(arow, brow []uint64, w int, aSigned, bSigned bool) int64 {
	a0, a1 := arow[:w], arow[w:2*w]
	b0, b1 := brow[:w], brow[w:2*w]
	var p00, p01, p10, p11 int
	for k := 0; k < w; k++ {
		av0, av1 := a0[k], a1[k]
		bv0, bv1 := b0[k], b1[k]
		p00 += bits.OnesCount64(av0 & bv0)
		p01 += bits.OnesCount64(av0 & bv1)
		p10 += bits.OnesCount64(av1 & bv0)
		p11 += bits.OnesCount64(av1 & bv1)
	}
	wa, wb := int64(2), int64(2)
	if aSigned {
		wa = -2
	}
	if bSigned {
		wb = -2
	}
	return int64(p00) + wb*int64(p01) + wa*int64(p10) + wa*wb*int64(p11)
}

// BitplaneMulRow computes dst[j] = dot(a[ra], b[j]) for every row j of b —
// one output-channel row of the HBS×HBS predictor product against all
// output positions. The a-row slices and plane weights are hoisted out of
// the j loop, and the 2×2 case runs a manually inlined kernel (the
// per-output call + re-slice overhead is comparable to the popcount work
// itself at typical lane counts).
func BitplaneMulRow(dst []int64, a *Bitplanes, ra int, b *Bitplanes) {
	if a.W != b.W || a.L != b.L {
		panic("tensor: BitplaneMulRow lane geometry mismatch")
	}
	if len(dst) < b.R {
		panic("tensor: BitplaneMulRow dst too small")
	}
	w := a.W
	arow := a.Data[ra*a.P*w : (ra+1)*a.P*w]
	if a.P == 2 && b.P == 2 {
		wa, wb := int64(2), int64(2)
		if a.Signed {
			wa = -2
		}
		if b.Signed {
			wb = -2
		}
		mulRow2x2(dst[:b.R], arow, b.Data, w, wa, wb)
		return
	}
	for j := 0; j < b.R; j++ {
		dst[j] = BitplaneDot(a, ra, b, j)
	}
}

func mulRow2x2(dst []int64, arow, bdata []uint64, w int, wa, wb int64) {
	if w == 3 {
		mulRow2x2w3(dst, arow, bdata, wa, wb)
		return
	}
	a0, a1 := arow[:w], arow[w:2*w]
	stride := 2 * w
	for j := range dst {
		off := j * stride
		b0 := bdata[off : off+w]
		b1 := bdata[off+w : off+stride : off+stride]
		var p00, p01, p10, p11 int
		for k := 0; k < w; k++ {
			av0, av1 := a0[k], a1[k]
			bv0, bv1 := b0[k], b1[k]
			p00 += bits.OnesCount64(av0 & bv0)
			p01 += bits.OnesCount64(av0 & bv1)
			p10 += bits.OnesCount64(av1 & bv0)
			p11 += bits.OnesCount64(av1 & bv1)
		}
		dst[j] = int64(p00) + wb*int64(p01) + wa*int64(p10) + wa*wb*int64(p11)
	}
}

// mulRow2x2w3 is the three-word (129–192 lane) specialization of
// mulRow2x2 — the common CNN shape (InC·K·K = 144 for a 16-channel 3×3
// layer). Hoisting the six weight words out of the position loop leaves
// twelve independent AND+POPCNT streams per output position and no inner
// loop at all.
func mulRow2x2w3(dst []int64, arow, bdata []uint64, wa, wb int64) {
	a00, a01, a02 := arow[0], arow[1], arow[2]
	a10, a11, a12 := arow[3], arow[4], arow[5]
	for j := range dst {
		off := j * 6
		b := bdata[off : off+6 : off+6]
		p00 := bits.OnesCount64(a00&b[0]) + bits.OnesCount64(a01&b[1]) + bits.OnesCount64(a02&b[2])
		p01 := bits.OnesCount64(a00&b[3]) + bits.OnesCount64(a01&b[4]) + bits.OnesCount64(a02&b[5])
		p10 := bits.OnesCount64(a10&b[0]) + bits.OnesCount64(a11&b[1]) + bits.OnesCount64(a12&b[2])
		p11 := bits.OnesCount64(a10&b[3]) + bits.OnesCount64(a11&b[4]) + bits.OnesCount64(a12&b[5])
		dst[j] = int64(p00) + wb*int64(p01) + wa*int64(p10) + wa*wb*int64(p11)
	}
}

// BitplaneDot3 computes the three ODQ executor partials for output
// position j against output channel oc in one fused pass:
//
//	hl = xh[j]·wl[oc]   lh = xl[j]·wh[oc]   ll = xl[j]·wl[oc]
//
// For the paper-default split (xh unsigned 2-plane, wh signed 2-plane,
// xl/wl signed 3-plane) the 21 plane-pair reductions share one word loop
// with all operand words loaded once; other geometries fall back to three
// BitplaneDot calls. Exact integer arithmetic either way.
func BitplaneDot3(xh, xl *Bitplanes, j int, wh, wl *Bitplanes, oc int) (hl, lh, ll int64) {
	if xh.P == 2 && !xh.Signed && xl.P == 3 && xl.Signed &&
		wh.P == 2 && wh.Signed && wl.P == 3 && wl.Signed &&
		xh.W == wh.W && xh.L == wh.L && xl.W == wl.W && xl.L == wl.L && xh.W == xl.W {
		return dot3Fused(xh, xl, j, wh, wl, oc)
	}
	return BitplaneDot(xh, j, wl, oc), BitplaneDot(xl, j, wh, oc), BitplaneDot(xl, j, wl, oc)
}

func dot3Fused(xh, xl *Bitplanes, j int, wh, wl *Bitplanes, oc int) (hl, lh, ll int64) {
	w := xh.W
	xhr := xh.Data[j*2*w : (j+1)*2*w]
	xlr := xl.Data[j*3*w : (j+1)*3*w]
	whr := wh.Data[oc*2*w : (oc+1)*2*w]
	wlr := wl.Data[oc*3*w : (oc+1)*3*w]
	xh0, xh1 := xhr[:w], xhr[w:2*w]
	xl0, xl1, xl2 := xlr[:w], xlr[w:2*w], xlr[2*w:3*w]
	wh0, wh1 := whr[:w], whr[w:2*w]
	wl0, wl1, wl2 := wlr[:w], wlr[w:2*w], wlr[2*w:3*w]
	var hlA, lhA, llA int
	for k := 0; k < w; k++ {
		xh0k, xh1k := xh0[k], xh1[k]
		xl0k, xl1k, xl2k := xl0[k], xl1[k], xl2[k]
		wh0k, wh1k := wh0[k], wh1[k]
		wl0k, wl1k, wl2k := wl0[k], wl1[k], wl2[k]
		// hl: xh planes weigh {1,2}, wl planes {1,2,-4}.
		hlA += bits.OnesCount64(xh0k&wl0k) +
			bits.OnesCount64(xh0k&wl1k)<<1 -
			bits.OnesCount64(xh0k&wl2k)<<2 +
			bits.OnesCount64(xh1k&wl0k)<<1 +
			bits.OnesCount64(xh1k&wl1k)<<2 -
			bits.OnesCount64(xh1k&wl2k)<<3
		// lh: xl planes weigh {1,2,-4}, wh planes {1,-2}.
		lhA += bits.OnesCount64(xl0k&wh0k) +
			bits.OnesCount64(xl1k&wh0k)<<1 -
			bits.OnesCount64(xl2k&wh0k)<<2 -
			bits.OnesCount64(xl0k&wh1k)<<1 -
			bits.OnesCount64(xl1k&wh1k)<<2 +
			bits.OnesCount64(xl2k&wh1k)<<3
		// ll: both sides {1,2,-4}.
		llA += bits.OnesCount64(xl0k&wl0k) +
			bits.OnesCount64(xl0k&wl1k)<<1 -
			bits.OnesCount64(xl0k&wl2k)<<2 +
			bits.OnesCount64(xl1k&wl0k)<<1 +
			bits.OnesCount64(xl1k&wl1k)<<2 -
			bits.OnesCount64(xl1k&wl2k)<<3 -
			bits.OnesCount64(xl2k&wl0k)<<2 -
			bits.OnesCount64(xl2k&wl1k)<<3 +
			bits.OnesCount64(xl2k&wl2k)<<4
	}
	return int64(hlA), int64(lhA), int64(llA)
}
