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

// Im2col expands one sample (src layout [C,H,W], len C*H*W) into the
// column matrix dst of shape [C*K*K, OutH*OutW] (row-major). Out-of-bounds
// (padding) positions contribute zero.
func Im2col(src []float32, g ConvGeom, dst []float32) {
	rows, cols := g.ColRows(), g.ColCols()
	if len(dst) < rows*cols {
		panic("tensor: Im2col dst too small")
	}
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				row := (c*g.K+kh)*g.K + kw
				dstRow := dst[row*cols : (row+1)*cols]
				idx := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < g.OutW; ow++ {
							dstRow[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw < 0 || iw >= g.InW {
							dstRow[idx] = 0
						} else {
							dstRow[idx] = src[rowBase+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

// Im2colInt is Im2col over int32 codes, used by the quantized paths.
func Im2colInt(src []int32, g ConvGeom, dst []int32) {
	rows, cols := g.ColRows(), g.ColCols()
	if len(dst) < rows*cols {
		panic("tensor: Im2colInt dst too small")
	}
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				row := (c*g.K+kh)*g.K + kw
				dstRow := dst[row*cols : (row+1)*cols]
				idx := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < g.OutW; ow++ {
							dstRow[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw < 0 || iw >= g.InW {
							dstRow[idx] = 0
						} else {
							dstRow[idx] = src[rowBase+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

// Col2im scatters the column-matrix gradient back to an input-gradient
// buffer (the adjoint of Im2col). dst has layout [C,H,W] and is accumulated
// into (callers zero it first).
func Col2im(cols []float32, g ConvGeom, dst []float32) {
	ncols := g.ColCols()
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				row := (c*g.K+kh)*g.K + kw
				srcRow := cols[row*ncols : (row+1)*ncols]
				idx := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						idx += g.OutW
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw >= 0 && iw < g.InW {
							dst[rowBase+iw] += srcRow[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
