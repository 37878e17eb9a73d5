package tensor

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// Bitplanes is a bit-planar integer-code matrix: R logical rows of L lanes
// each, with every row stored as P uint64 bitplanes of W = ceil(L/64)
// words. The layout is position-minor: word k of plane p of row r lives at
// Data[(p*W+k)*R + r], so the same word of consecutive rows is contiguous
// and one 64-byte load reads it for eight rows. Lane l maps to bit l&63 of
// word l>>6. Unused tail bits of the last word are kept zero by the
// packers, so kernels can run whole words without masking. Activation rows
// (one per output position) and weight rows (one per output channel) use
// this one layout.
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

// word returns word k of plane p of row r.
func (bp *Bitplanes) word(p, k, r int) uint64 { return bp.Data[(p*bp.W+k)*bp.R+r] }

// PackRow packs row r from the first L values of src. Unsigned codes must
// lie in [0, 2^P-1]; signed codes in [-2^(P-1), 2^(P-1)-1] (the masked
// two's-complement truncation encodes them exactly in P planes). Values
// outside that range would alias, so callers quantize/clamp first — the
// ODQ splits do by construction.
func (bp *Bitplanes) PackRow(r int, src []int32) {
	if len(src) < bp.L {
		panic(fmt.Sprintf("tensor: PackRow src %d lanes, want %d", len(src), bp.L))
	}
	for k := 0; k < bp.W; k++ {
		lanes := src[k*64 : min((k+1)*64, bp.L)]
		for p := 0; p < bp.P; p++ {
			var word uint64
			for i, v := range lanes {
				word |= uint64(uint32(v)>>uint(p)&1) << uint(i)
			}
			bp.Data[(p*bp.W+k)*bp.R+r] = word
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
// (dst.R = g.ColCols()) of g.ColRows() lanes in (kh, kw, c) order, in two
// passes.
//
// The first pass turns each input row into one bitstream per plane over
// the padded row: lane iw·C + c of (InW + 2·Pad)·C holds channel c of
// padded column iw, pad lanes zero. The row's codes are written as
// lane-ordered bytes and each plane's bits gathered eight lanes per
// multiply (gatherPlane); codes wider than eight planes take one byte
// pass per eight planes.
//
// The second pass builds each output row from K bit-fields, one per
// kernel row kh: the K·C lanes of taps (kh, 0..K-1, 0..C-1) sit
// contiguously in input row ih's stream from lane ow·Stride·C, and land
// at lane kh·K·C of the row. One run of fields (one output row oh, one
// kernel row, one plane) covers the OutW consecutive positions of oh, so
// it writes OutW consecutive words per destination word. Kernel rows
// outside the input contribute nothing. dst.P and dst.Signed give the
// code range as for PackRow; dst may hold dirty pooled scratch.
func PackConvRows(src []int32, g ConvGeom, dst *Bitplanes) {
	if dst.R != g.ColCols() || dst.L != g.ColRows() || len(src) < g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: PackConvRows dst %dx%d, want %dx%d", dst.R, dst.L, g.ColCols(), g.ColRows()))
	}
	planes, c := dst.P, g.InC
	// sw words per (row, plane) stream: the padded lanes plus one zero
	// word, so a field's two-word read never runs off the end.
	sw := BitplaneWords((g.InW+2*g.Pad)*c) + 1
	streams := GetUint64(g.InH * planes * sw)
	bytes := GetUint8((sw - 1) * 64)
	clear(bytes)
	hw := g.InH * g.InW
	for ih := 0; ih < g.InH; ih++ {
		for p0 := 0; p0 < planes; p0 += 8 {
			for ch := 0; ch < c; ch++ {
				lane := g.Pad*c + ch
				for _, code := range src[ch*hw+ih*g.InW : ch*hw+(ih+1)*g.InW] {
					bytes[lane] = uint8(code >> uint(p0))
					lane += c
				}
			}
			for p := p0; p < planes && p < p0+8; p++ {
				st := streams[(ih*planes+p)*sw : (ih*planes+p+1)*sw]
				for wi := range st[:sw-1] {
					st[wi] = gatherPlane(bytes[wi*64:wi*64+64], uint(p-p0))
				}
				st[sw-1] = 0
			}
		}
	}
	PutUint8(bytes)

	kc, step, w, r := g.K*c, g.Stride*c, dst.W, dst.R
	clear(dst.Data[:BitplaneSize(r, dst.L, planes)])
	for oh := 0; oh < g.OutH; oh++ {
		for kh := 0; kh < g.K; kh++ {
			ih := oh*g.Stride - g.Pad + kh
			if ih < 0 || ih >= g.InH {
				continue
			}
			for p := 0; p < planes; p++ {
				st := streams[(ih*planes+p)*sw : (ih*planes+p+1)*sw]
				orFields(dst.Data[p*w*r+oh*g.OutW:], g.OutW, r, st, step, kh*kc, kc)
			}
		}
	}
	PutUint64(streams)
}

// gatherPlane returns bit p of each of the 64 bytes of b, byte i on bit i.
// Masking one bit per byte and multiplying by 0x0102040810204080 moves
// byte i's bit to bit 56+i with no two partial products overlapping, so
// eight lanes gather in one multiply.
func gatherPlane(b []uint8, p uint) uint64 {
	const lsb, spread = 0x0101010101010101, 0x0102040810204080
	b = b[:64]
	var word uint64
	for k := 0; k < 8; k++ {
		x := binary.LittleEndian.Uint64(b[8*k:])
		word |= (x >> p & lsb) * spread >> 56 << uint(8*k)
	}
	return word
}

// orFields ORs one kc-lane field into each of n consecutive rows of one
// plane, whose word d of row j is rows[d*stride + j]: row j takes stream
// lanes [j·step, j·step+kc) of st to lanes [at, at+kc). A field of at most
// 64 lanes is one funnel shift of two stream words, and whether it spills
// into a second row word depends on at alone; wider fields copy 64 lanes
// at a time. A shift of 64 yields 0, so an aligned field never spills,
// and a nonzero spill always has a next word to land in.
func orFields(rows []uint64, n, stride int, st []uint64, step, at, kc int) {
	if kc <= 64 {
		mask := ^uint64(0) >> uint(64-kc)
		di, dsh := at>>6, uint(at&63)
		d0 := rows[di*stride : di*stride+n]
		var d1 []uint64
		if int(dsh)+kc > 64 {
			d1 = rows[(di+1)*stride : (di+1)*stride+n]
		}
		for j, off := 0, 0; j < n; j, off = j+1, off+step {
			sh := uint(off & 63)
			s := st[off>>6 : off>>6+2]
			// (63-sh)&63 then 1 is a shift by 64-sh the compiler need
			// not guard against reaching 64.
			f := (s[0]>>sh | s[1]<<((63-sh)&63)<<1) & mask
			d0[j] |= f << dsh
			if d1 != nil {
				d1[j] |= f >> ((64 - dsh) & 63)
			}
		}
		return
	}
	for j, off := 0, 0; j < n; j, off = j+1, off+step {
		for done := 0; done < kc; done += 64 {
			src, dl := off+done, at+done
			wi, sh := src>>6, uint(src&63)
			f := st[wi]>>sh | st[wi+1]<<(64-sh)
			if kc-done < 64 {
				f &= ^uint64(0) >> uint(64-(kc-done))
			}
			di, dsh := dl>>6, uint(dl&63)
			rows[di*stride+j] |= f << dsh
			if hi := f >> (64 - dsh); hi != 0 {
				rows[(di+1)*stride+j] |= hi
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
// plane-weighted AND+POPCNT reductions. It is the generic one-output
// kernel, the reference the row kernels are tested against.
func BitplaneDot(a *Bitplanes, ra int, b *Bitplanes, rb int) int64 {
	if a.W != b.W || a.L != b.L {
		panic("tensor: BitplaneDot lane geometry mismatch")
	}
	var total int64
	for i := 0; i < a.P; i++ {
		wi := planeWeight(i, a.P, a.Signed)
		for j := 0; j < b.P; j++ {
			var pc int
			for k := 0; k < a.W; k++ {
				pc += bits.OnesCount64(a.word(i, k, ra) & b.word(j, k, rb))
			}
			total += wi * planeWeight(j, b.P, b.Signed) * int64(pc)
		}
	}
	return total
}

// Row kernels. Both run one weight row (one output channel) against every
// activation row (every output position). Where the vector kernels run
// (useAsmPopcnt), eight positions share each 64-byte load, AND and
// VPOPCNTQ, full blocks of eight rows take the assembly and the last R%8
// rows the scalar loop. The scalar kernels run everywhere else. Every sum
// is an exact integer in either set, so the two agree bit for bit.

// BitplaneMulRow computes dst[j] = dot(a[ra], b[j]) for every row j of b —
// one output-channel row of the HBS×HBS predictor product of the paper's
// 4/2 split against all output positions — on rowDot2x2 (or its AVX-512
// twin). Both operands must have 2 planes, of either signedness; any other
// plane count panics before dst is written.
func BitplaneMulRow(dst []int64, a *Bitplanes, ra int, b *Bitplanes) {
	if a.W != b.W || a.L != b.L {
		panic("tensor: BitplaneMulRow lane geometry mismatch")
	}
	if a.P != 2 || b.P != 2 {
		panic(fmt.Sprintf("tensor: BitplaneMulRow runs 2×2 planes, got %d×%d", a.P, b.P))
	}
	if len(dst) < b.R {
		panic("tensor: BitplaneMulRow dst too small")
	}
	mustHold("BitplaneMulRow", a, b)
	var buf [2 * 16]uint64
	wt, pooled := weightScratch(buf[:], 2*a.W)
	gatherWeights(wt, ra, a)
	r0 := 0
	if useAsmPopcnt && b.R >= 8 && b.W > 0 {
		r0 = b.R &^ 7
		rowDot2x2AVX512(&dst[0], &wt[0], &b.Data[0], r0/8, b.W, b.R, signMask(a.Signed), signMask(b.Signed))
	}
	rowDot2x2(dst, wt, b, planeWeight(1, 2, a.Signed), r0)
	if pooled != nil {
		PutUint64(pooled)
	}
}

// signMask is the negation mask of a top plane: all ones when it weighs
// −2^(P−1), zero otherwise.
func signMask(signed bool) uint64 {
	if signed {
		return ^uint64(0)
	}
	return 0
}

// weightScratch returns n words for a gathered weight row: buf when it
// is large enough, else pooled scratch, also returned as pooled for the
// caller to put back (kept apart from buf so buf stays on the stack).
func weightScratch(buf []uint64, n int) (wt, pooled []uint64) {
	if n <= len(buf) {
		return buf[:n], nil
	}
	pooled = GetUint64(n)
	return pooled, pooled
}

// gatherWeights copies row r of the operands a into word-major order:
// for each word k, word k of every plane of a[0], then of a[1], and so
// on. The kernels then read one weight row from a single run of memory
// that advances by the plane count per word.
func gatherWeights(wt []uint64, r int, a ...*Bitplanes) {
	q := 0
	for k := 0; k < a[0].W; k++ {
		for _, x := range a {
			for p := 0; p < x.P; p++ {
				wt[q] = x.word(p, k, r)
				q++
			}
		}
	}
}

// rowDot2x2 is the scalar 2×2-plane predictor kernel for rows [r0, R) of
// b, with wt the weight row from gatherWeights and wa the weight of its
// top plane. It runs word by word: each pass reads one plane word of the
// run of consecutive positions and adds its four weighted AND+POPCNT
// terms to dst, which on this layout is twice as fast as keeping each
// row's counts in registers over strided words.
func rowDot2x2(dst []int64, wt []uint64, b *Bitplanes, wa int64, r0 int) {
	w, rb := b.W, b.R
	wb := planeWeight(1, 2, b.Signed)
	wab := wa * wb
	d := dst[r0:rb]
	clear(d)
	for k := 0; k < w; k++ {
		a0, a1 := wt[2*k], wt[2*k+1]
		b0 := b.Data[k*rb+r0 : (k+1)*rb]
		b1 := b.Data[(w+k)*rb+r0 : (w+k+1)*rb]
		b0, b1 = b0[:len(d)], b1[:len(d)]
		for i, x0 := range b0 {
			x1 := b1[i]
			d[i] += int64(bits.OnesCount64(x0&a0)) + wb*int64(bits.OnesCount64(x1&a0)) +
				wa*int64(bits.OnesCount64(x0&a1)) + wab*int64(bits.OnesCount64(x1&a1))
		}
	}
}

// BitplanePartials computes the three ODQ executor partials of output
// channel oc against every output position j whose mask[j] is set:
//
//	hl = xh[j]·wl[oc]   lh = xl[j]·wh[oc]   ll = xl[j]·wl[oc]
//
// into dst[j], dst[R+j] and dst[2R+j], R = xh.R. Entries of positions
// whose mask is false are unspecified: the vector kernel computes whole
// blocks of eight positions and skips a block only when none of its
// eight is sensitive. The operands must have the planes of the paper's
// 4/2 split (xh unsigned 2-plane, wh signed 2-plane, xl and wl signed
// 3-plane), whose 21 plane-pair reductions run fused (rowPartials23, or
// its AVX-512 twin); any other geometry panics before dst is written.
func BitplanePartials(dst []int64, xh, xl, wh, wl *Bitplanes, oc int, mask []bool) {
	r := xh.R
	if xl.R != r || wh.R != wl.R || xh.W != xl.W || xh.W != wh.W || xh.W != wl.W ||
		xh.L != xl.L || xh.L != wh.L || xh.L != wl.L {
		panic("tensor: BitplanePartials geometry mismatch")
	}
	if xh.P != 2 || xh.Signed || xl.P != 3 || !xl.Signed || wh.P != 2 || !wh.Signed || wl.P != 3 || !wl.Signed {
		panic("tensor: BitplanePartials runs the 4/2 split's planes only")
	}
	if len(dst) < 3*r || len(mask) < r {
		panic("tensor: BitplanePartials dst or mask too small")
	}
	mustHold("BitplanePartials", xh, xl, wh, wl)
	var buf [5 * 16]uint64
	wt, pooled := weightScratch(buf[:], 5*xh.W)
	gatherWeights(wt, oc, wh, wl)
	r0 := 0
	if useAsmPopcnt && r >= 8 && xh.W > 0 {
		r0 = r &^ 7
		rowPartials23AVX512(&dst[0], &wt[0], &xh.Data[0], &xl.Data[0], &mask[0], r0/8, xh.W, r)
	}
	rowPartials23(dst, wt, xh, xl, mask, r0)
	if pooled != nil {
		PutUint64(pooled)
	}
}

// mustHold panics unless each operand's Data holds the P·W·R words a row
// kernel reads. The assembly reads through raw pointers, so this is the
// bounds check Go's slicing would otherwise make.
func mustHold(op string, xs ...*Bitplanes) {
	for _, x := range xs {
		if n := x.P * x.W * x.R; len(x.Data) < n {
			panic(fmt.Sprintf("tensor: %s operand holds %d words, want %d", op, len(x.Data), n))
		}
	}
}

// rowPartials23 is the scalar fused executor kernel for positions [r0, R),
// with wt the weight row in gatherWeights'
// order (wh0, wh1, wl0, wl1, wl2 per word). A block of eight positions
// with no sensitive one costs one 8-byte test; in the others, each
// sensitive position runs the 21 plane-pair reductions over every word
// with its operand words loaded once.
func rowPartials23(dst []int64, wt []uint64, xh, xl *Bitplanes, mask []bool, r0 int) {
	w, r := xh.W, xh.R
	n := w * r
	xh0, xh1 := xh.Data[:n], xh.Data[n:2*n]
	xl0, xl1, xl2 := xl.Data[:n], xl.Data[n:2*n], xl.Data[2*n:3*n]
	mb := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(mask))), r)
	for j0 := r0; j0 < r; j0 += 8 {
		var m uint64
		if j0+8 <= r {
			m = binary.LittleEndian.Uint64(mb[j0:])
		} else {
			for i, b := range mb[j0:] {
				m |= uint64(b) << uint(8*i)
			}
		}
		for ; m != 0; m &= m - 1 {
			j := j0 + bits.TrailingZeros64(m)>>3
			var hlA, lhA, llA int
			for k := 0; k < w; k++ {
				o := k*r + j
				xh0k, xh1k := xh0[o], xh1[o]
				xl0k, xl1k, xl2k := xl0[o], xl1[o], xl2[o]
				ws := wt[5*k : 5*k+5 : 5*k+5]
				wh0k, wh1k, wl0k, wl1k, wl2k := ws[0], ws[1], ws[2], ws[3], ws[4]
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
			dst[j], dst[r+j], dst[2*r+j] = int64(hlA), int64(lhA), int64(llA)
		}
	}
}
