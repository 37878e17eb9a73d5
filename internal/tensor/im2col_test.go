package tensor

// Im2col and Im2colInt materialize the im2col matrix. Production code
// never builds it: the GEMM packers read each panel straight from the
// input (conv.go). They stay here as the packers' oracle.

// Im2col expands one sample (src layout [C,H,W], len C*H*W) into the
// column matrix dst of shape [C*K*K, OutH*OutW] (row-major). Out-of-bounds
// (padding) positions contribute zero.
func Im2col(src []float32, g ConvGeom, dst []float32) { im2col(src, g, dst) }

// Im2colInt is Im2col over int32 codes.
func Im2colInt(src []int32, g ConvGeom, dst []int32) { im2col(src, g, dst) }

func im2col[T float32 | int32](src []T, g ConvGeom, dst []T) {
	rows, cols := g.ColRows(), g.ColCols()
	if len(dst) < rows*cols {
		panic("tensor: im2col dst too small")
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
