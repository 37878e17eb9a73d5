package tensor

import "fmt"

// Add computes t += o elementwise. Shapes must match.
func (t *Tensor) Add(o *Tensor) {
	mustSameLen(t, o, "Add")
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub computes t -= o elementwise.
func (t *Tensor) Sub(o *Tensor) {
	mustSameLen(t, o, "Sub")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Mul computes t *= o elementwise (Hadamard product).
func (t *Tensor) Mul(o *Tensor) {
	mustSameLen(t, o, "Mul")
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddScaled computes t += s*o elementwise.
func (t *Tensor) AddScaled(s float32, o *Tensor) {
	mustSameLen(t, o, "AddScaled")
	for i, v := range o.Data {
		t.Data[i] += s * v
	}
}

// ReLU applies max(0, x) in place.
func (t *Tensor) ReLU() {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// MaxAbsDiff returns max_i |t_i - o_i|; it is the metric used for the
// paper's precision-loss and extra-precision measurements (Eq. 1).
func MaxAbsDiff(a, b *Tensor) float32 {
	mustSameLen(a, b, "MaxAbsDiff")
	var m float32
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// MeanAbsDiff returns mean_i |t_i - o_i|.
func MeanAbsDiff(a, b *Tensor) float32 {
	mustSameLen(a, b, "MeanAbsDiff")
	if len(a.Data) == 0 {
		return 0
	}
	var s float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		s += float64(d)
	}
	return float32(s / float64(len(a.Data)))
}

// Argmax returns the index of the maximum element. Ties resolve to the
// first occurrence. Panics on empty tensors.
func (t *Tensor) Argmax() int {
	if len(t.Data) == 0 {
		panic("tensor: Argmax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ArgmaxRows treats t as [rows, cols] and returns the argmax per row.
func (t *Tensor) ArgmaxRows() []int {
	if t.Rank() != 2 {
		panic("tensor: ArgmaxRows requires a rank-2 tensor")
	}
	rows, cols := t.Shape[0], t.Shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		best, bi := row[0], 0
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		out[r] = bi
	}
	return out
}

func mustSameLen(a, b *Tensor, op string) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s length mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
