// Package tensor provides dense float32 tensors in NCHW layout together
// with the linear-algebra kernels (parallel GEMM, im2col) that the rest of
// the DNN stack is built on. It also carries integer variants used by the
// quantized inference paths.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense float32 tensor. Data is stored row-major with the last
// dimension contiguous; for activations the canonical layout is NCHW.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zeroed tensor with the given shape.
func New(shape ...int) *Tensor {
	n := NumElems(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// NewFrom wraps data in a tensor with the given shape. The data slice is
// used directly (not copied); len(data) must equal the shape's element count.
func NewFrom(data []float32, shape ...int) *Tensor {
	if NumElems(shape) != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elems, data has %d", shape, NumElems(shape), len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// NumElems returns the number of elements implied by shape.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dim in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same data. The total
// element count must match. A single -1 dim is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in reshape")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = len(t.Data) / known
	}
	if NumElems(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", t.Shape, shape))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At4 reads element (n,c,h,w) of a rank-4 tensor.
func (t *Tensor) At4(n, c, h, w int) float32 {
	return t.Data[((n*t.Shape[1]+c)*t.Shape[2]+h)*t.Shape[3]+w]
}

// Set4 writes element (n,c,h,w) of a rank-4 tensor.
func (t *Tensor) Set4(n, c, h, w int, v float32) {
	t.Data[((n*t.Shape[1]+c)*t.Shape[2]+h)*t.Shape[3]+w] = v
}

// String renders a compact description (shape plus summary statistics),
// not the full contents, which can be huge.
func (t *Tensor) String() string {
	mn, mx, mean := t.Stats()
	return fmt.Sprintf("Tensor%v[min=%.4g max=%.4g mean=%.4g]", t.Shape, mn, mx, mean)
}

// Stats returns (min, max, mean) over all elements. An empty tensor
// returns zeros.
func (t *Tensor) Stats() (min, max, mean float32) {
	if len(t.Data) == 0 {
		return 0, 0, 0
	}
	min, max = t.Data[0], t.Data[0]
	var sum float64
	for _, v := range t.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += float64(v)
	}
	return min, max, float32(sum / float64(len(t.Data)))
}

// AbsMax returns the maximum absolute value over all elements.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// L2 returns the Euclidean norm of all elements.
func (t *Tensor) L2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Slice4Batch returns a view of sample n of a rank-4 tensor, shaped
// [1,C,H,W] and sharing storage.
func (t *Tensor) Slice4Batch(n int) *Tensor {
	if t.Rank() != 4 {
		panic("tensor: Slice4Batch requires rank-4 tensor")
	}
	per := t.Shape[1] * t.Shape[2] * t.Shape[3]
	return &Tensor{
		Shape: []int{1, t.Shape[1], t.Shape[2], t.Shape[3]},
		Data:  t.Data[n*per : (n+1)*per],
	}
}

// IntTensor holds quantized integer codes plus the real-valued scale that
// maps codes back to reals: real ≈ float32(code) * Scale. Codes are stored
// widened to int32 regardless of their nominal bit width (2, 4, 8, 16) so a
// single integer kernel serves every precision.
type IntTensor struct {
	Shape []int
	Data  []int32
	// Scale is the real value of one quantization step.
	Scale float32
	// Bits is the nominal bit width of the codes.
	Bits int
}

// NewInt allocates a zeroed integer tensor.
func NewInt(bits int, scale float32, shape ...int) *IntTensor {
	return &IntTensor{
		Shape: append([]int(nil), shape...),
		Data:  make([]int32, NumElems(shape)),
		Scale: scale,
		Bits:  bits,
	}
}

// Len returns the total number of codes.
func (t *IntTensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *IntTensor) Clone() *IntTensor {
	c := NewInt(t.Bits, t.Scale, t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Dequantize expands the codes back to float32.
func (t *IntTensor) Dequantize() *Tensor {
	out := New(t.Shape...)
	for i, c := range t.Data {
		out.Data[i] = float32(c) * t.Scale
	}
	return out
}
