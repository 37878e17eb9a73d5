package tensor

// ConvGeom captures the geometry of a 2-D convolution so that forward,
// backward, and all the quantized paths agree on output sizing.
type ConvGeom struct {
	InC, InH, InW    int
	OutC, OutH, OutW int
	K, Stride, Pad   int
}

// Geometry computes output dimensions for a convolution over an input of
// inC×inH×inW with outC filters of size k, given stride and padding.
func Geometry(inC, inH, inW, outC, k, stride, pad int) ConvGeom {
	return ConvGeom{
		InC: inC, InH: inH, InW: inW,
		OutC: outC,
		OutH: (inH+2*pad-k)/stride + 1,
		OutW: (inW+2*pad-k)/stride + 1,
		K:    k, Stride: stride, Pad: pad,
	}
}

// ColRows returns the number of rows of the im2col matrix (C*K*K).
func (g ConvGeom) ColRows() int { return g.InC * g.K * g.K }

// ColCols returns the number of columns of the im2col matrix (OutH*OutW).
func (g ConvGeom) ColCols() int { return g.OutH * g.OutW }

// MACsPerOutput returns the MAC count that produces one output feature.
func (g ConvGeom) MACsPerOutput() int { return g.InC * g.K * g.K }

// TotalOutputs returns the number of output features per sample.
func (g ConvGeom) TotalOutputs() int { return g.OutC * g.OutH * g.OutW }

// TotalMACs returns the MAC count for one sample through this layer.
func (g ConvGeom) TotalMACs() int64 {
	return int64(g.TotalOutputs()) * int64(g.MACsPerOutput())
}

// ---- Implicit-GEMM convolution ----
//
// A convolution of one sample is the GEMM W·im2col(x): W is the
// OutC×(C·K·K) weight matrix and im2col(x) the (C·K·K)×(OH·OW) column
// matrix whose row r = (c·K + kh)·K + kw is input channel c shifted by
// tap (kh, kw), and whose column j = oh·OW + ow is an output position,
// zero where the tap falls in the padding. The entry points below never
// build that matrix: the blocked GEMM cores pack each kc×NR B panel
// straight from the sample's [C,H,W] input (packConvB, packConvBT), with
// the values packMatB would copy out of the materialized matrix, in the
// same slots. The blocking, the microkernels and the tile order are the
// matrix GEMM's, so every float sum keeps its order and the results are
// bit-identical to im2col followed by Gemm or GemmNT.

// ConvGemm computes out = w·im2col(x) for one sample: w is the
// OutC×(C·K·K) weight matrix, x the sample's [C,H,W] input and out its
// OutC×(OH·OW) output. With a non-nil bias, row i starts from bias[i]
// instead of zero, so the convolution's bias lands during the row
// initialization and needs no separate pass over the output.
func ConvGemm(w, x []float32, g ConvGeom, out, bias []float32) {
	m, k, n := g.OutC, g.ColRows(), g.ColCols()
	if len(w) < m*k || len(x) < g.InC*g.InH*g.InW || len(out) < m*n {
		panic("tensor: ConvGemm buffer too small")
	}
	if bias != nil && len(bias) < m {
		panic("tensor: ConvGemm bias too small")
	}
	if m == 0 || n == 0 {
		return
	}
	if bias == nil {
		clear(out[:m*n])
	} else {
		for i := 0; i < m; i++ {
			row := out[i*n : (i+1)*n]
			for j := range row {
				row[j] = bias[i]
			}
		}
	}
	if k == 0 {
		return
	}
	gemmF32(w, k, 1, convB(x, g, false), out, m, k, n)
}

// ConvGemmNT accumulates dw += gs·im2col(x)ᵀ for one sample: gs is the
// OutC×(OH·OW) output gradient, x the sample's [C,H,W] input and dw the
// OutC×(C·K·K) weight gradient. The transposed B panels are packed
// straight from x.
func ConvGemmNT(gs, x []float32, g ConvGeom, dw []float32) {
	m, k, n := g.OutC, g.ColCols(), g.ColRows()
	if len(gs) < m*k || len(x) < g.InC*g.InH*g.InW || len(dw) < m*n {
		panic("tensor: ConvGemmNT buffer too small")
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemmF32(gs, k, 1, convB(x, g, true), dw, m, k, n)
}

// ConvGemmInt computes acc = w·im2col(x) over int32 codes with int64
// accumulation: w holds m weight rows of C·K·K codes, x is one sample's
// [C,H,W] codes and acc the m×(OH·OW) result. m may exceed g.OutC, which
// stacks several weight matrices against the one input and packs its B
// panels once for all of them. Like GemmInt it is bit-exact.
func ConvGemmInt(w, x []int32, g ConvGeom, acc []int64, m int) {
	k, n := g.ColRows(), g.ColCols()
	if len(w) < m*k || len(x) < g.InC*g.InH*g.InW || len(acc) < m*n {
		panic("tensor: ConvGemmInt buffer too small")
	}
	if m == 0 || n == 0 {
		return
	}
	clear(acc[:m*n])
	if k == 0 {
		return
	}
	gemmIntCore(w, convB(x, g, false), acc, m, k, n)
}

// tap splits im2col row r into its input channel and kernel offsets.
func (g *ConvGeom) tap(r int) (c, kh, kw int) {
	return r / (g.K * g.K), r / g.K % g.K, r % g.K
}

// nextTap advances (c, kh, kw) to the following im2col row.
func (g *ConvGeom) nextTap(c, kh, kw int) (int, int, int) {
	if kw++; kw == g.K {
		kw = 0
		if kh++; kh == g.K {
			kh = 0
			c++
		}
	}
	return c, kh, kw
}

// packConvB packs rows [pc,pc+kc) × cols [jc,jc+nc) of the im2col matrix
// of the [C,H,W] input x into nr-column panels laid out panel-major
// [p][j], tail columns zero-padded: packMatB's layout and values. It runs
// one tap (one row p) at a time and walks the block's columns one output
// row at a time. With stride 1 an output row reads consecutive input
// columns, so its in-bounds run is copied from one input row, panel by
// panel, and its padding lanes are zeroed; other strides gather element
// by element.
func packConvB[T float32 | int32](x []T, g *ConvGeom, pc, kc, jc, nc, nr int, dst []T) {
	plane, ps := g.InH*g.InW, kc*nr
	c, kh, kw := g.tap(pc)
	for p := 0; p < kc; p++ {
		ch := x[c*plane : (c+1)*plane]
		d := panelRow[T]{dst: dst, off: p * nr, nr: nr, ps: ps}
		oh, ow := jc/g.OutW, jc%g.OutW
		for j := 0; j < nc; oh, ow = oh+1, 0 {
			n := min(g.OutW-ow, nc-j)
			j += n
			ih := oh*g.Stride - g.Pad + kh
			if ih < 0 || ih >= g.InH {
				d.zero(n)
				continue
			}
			row := ch[ih*g.InW : (ih+1)*g.InW]
			iw := ow*g.Stride - g.Pad + kw
			if g.Stride == 1 {
				lo := min(max(-iw, 0), n)
				hi := max(min(g.InW-iw, n), lo)
				d.zero(lo)
				if lo < hi {
					d.put(row[iw+lo : iw+hi])
				}
				d.zero(n - hi)
				continue
			}
			for t := 0; t < n; t++ {
				var v T
				if iw >= 0 && iw < g.InW {
					v = row[iw]
				}
				d.set(v)
				iw += g.Stride
			}
		}
		d.zero(d.pad())
		c, kh, kw = g.nextTap(c, kh, kw)
	}
}

// panelRow writes one packed row p of consecutive B̅ columns across
// nr-column panels ps values apart: column j lands in panel j/nr at
// off + (j/nr)·ps + j%nr, where off = p·nr.
type panelRow[T float32 | int32] struct {
	dst       []T
	off, lane int // slot of the next column, and its lane in its panel
	nr, ps    int
}

// put writes src to the next len(src) columns.
func (d *panelRow[T]) put(src []T) {
	if d.lane != 0 {
		m := min(d.nr-d.lane, len(src))
		copy(d.dst[d.off:d.off+m], src[:m])
		src = src[m:]
		d.advance(m)
	}
	nr, ps, off := d.nr, d.ps, d.off
	for len(src) >= nr {
		copy(d.dst[off:off+nr], src[:nr])
		src = src[nr:]
		off += ps
	}
	d.off = off
	if len(src) > 0 {
		copy(d.dst[off:off+len(src)], src)
		d.advance(len(src))
	}
}

// zero writes zeros to the next n columns.
func (d *panelRow[T]) zero(n int) {
	for n > 0 {
		m := min(d.nr-d.lane, n)
		clear(d.dst[d.off : d.off+m])
		n -= m
		d.advance(m)
	}
}

// set writes v to the next column.
func (d *panelRow[T]) set(v T) {
	d.dst[d.off] = v
	d.advance(1)
}

// advance moves past m columns of the current panel.
func (d *panelRow[T]) advance(m int) {
	d.off += m
	if d.lane += m; d.lane == d.nr {
		d.lane = 0
		d.off += d.ps - d.nr
	}
}

// pad returns the zero-padding lanes left in the current panel.
func (d *panelRow[T]) pad() int {
	if d.lane == 0 {
		return 0
	}
	return d.nr - d.lane
}

// packConvBT packs rows [pc,pc+kc) × cols [jc,jc+nc) of the transposed
// im2col matrix of x (row p an output position, column j a tap) into
// nr-column panels, packMatB's layout and values again. A panel's taps
// are decoded once into input offsets; each panel row then gathers the
// panel's taps at one output position, with bounds checks only at
// positions whose receptive field meets the padding.
func packConvBT[T float32 | int32](x []T, g *ConvGeom, pc, kc, jc, nc, nr int, dst []T) {
	var off, khs, kws [gemmMaxNR]int
	plane := g.InH * g.InW
	for j0 := 0; j0 < nc; j0 += nr {
		w := min(nr, nc-j0)
		pan := dst[(j0/nr)*kc*nr : (j0/nr+1)*kc*nr]
		c, kh, kw := g.tap(jc + j0)
		for j := 0; j < w; j++ {
			off[j], khs[j], kws[j] = c*plane+kh*g.InW+kw, kh, kw
			c, kh, kw = g.nextTap(c, kh, kw)
		}
		offs := off[:w]
		oh, ow := pc/g.OutW, pc%g.OutW
		for p := 0; p < kc; p++ {
			d := pan[p*nr : (p+1)*nr]
			ih, iw := oh*g.Stride-g.Pad, ow*g.Stride-g.Pad
			if ih >= 0 && ih+g.K <= g.InH && iw >= 0 && iw+g.K <= g.InW {
				src := x[ih*g.InW+iw:]
				for j, o := range offs {
					d[j] = src[o]
				}
			} else {
				for j, o := range offs {
					var v T
					if ih2, iw2 := ih+khs[j], iw+kws[j]; ih2 >= 0 && ih2 < g.InH && iw2 >= 0 && iw2 < g.InW {
						v = x[o+ih*g.InW+iw]
					}
					d[j] = v
				}
			}
			if w < nr {
				clear(d[w:])
			}
			if ow++; ow == g.OutW {
				oh, ow = oh+1, 0
			}
		}
	}
}

// Col2im scatters the column-matrix gradient back to an input-gradient
// buffer (the adjoint of im2col). dst has layout [C,H,W] and is
// accumulated into (callers zero it first). With stride 1 an output row
// adds into consecutive input columns, so each row's in-bounds run is one
// slice loop. Either way every element of dst receives its adds in the
// same (c, kh, kw, oh, ow) order.
func Col2im(cols []float32, g ConvGeom, dst []float32) {
	ncols := g.ColCols()
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				row := (c*g.K+kh)*g.K + kw
				srcRow := cols[row*ncols : (row+1)*ncols]
				iw0 := kw - g.Pad
				lo := min(max(-iw0, 0), g.OutW)
				hi := max(min(g.InW-iw0, g.OutW), lo)
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						continue
					}
					src := srcRow[oh*g.OutW : (oh+1)*g.OutW]
					d := dst[chanBase+ih*g.InW : chanBase+(ih+1)*g.InW]
					if g.Stride == 1 {
						if lo < hi {
							dd := d[iw0+lo : iw0+hi]
							for t, v := range src[lo:hi] {
								dd[t] += v
							}
						}
						continue
					}
					for ow, v := range src {
						if iw := ow*g.Stride + iw0; iw >= 0 && iw < g.InW {
							d[iw] += v
						}
					}
				}
			}
		}
	}
}
