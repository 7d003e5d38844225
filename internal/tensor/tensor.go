// Package tensor implements the dense float32 tensor used by the neural
// network stack. Tensors are row-major and mutable; operations either write
// into the receiver, into a destination tensor, or return a fresh tensor —
// each method documents which. The package is deliberately small: the models
// in this repository only need elementwise algebra, matrix multiplication,
// im2col-based convolution support and a handful of reductions.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 array with an explicit shape.
// The zero value is an empty tensor; use New or helpers to construct one.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics on a non-positive dimension, since a malformed shape is a
// programming error rather than a runtime condition.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// The caller must not alias data elsewhere unless that sharing is intended.
// Like New it panics on a non-positive dimension: two negative dimensions
// would otherwise multiply to a plausible element count and produce a
// tensor whose shape no indexing code can use.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, data has %d", shape, n, len(data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice is a copy.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view over the same storage with a new shape.
// The element count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes element count", t.shape, shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// ShapeEq reports whether the tensor's shape equals dims. It allocates
// nothing, which lets shape checks sit on allocation-free hot paths.
func (t *Tensor) ShapeEq(dims ...int) bool {
	if len(t.shape) != len(dims) {
		return false
	}
	for i, d := range dims {
		if t.shape[i] != d {
			return false
		}
	}
	return true
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) assertSame(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// Zero sets all elements to 0 in place.
func (t *Tensor) Zero() {
	clear(t.data)
}

// Fill sets all elements to v in place.
func (t *Tensor) Fill(v float32) {
	if v == 0 { //advlint:floatcmp-ok exact-zero fast path: clear writes the same bits
		clear(t.data)
		return
	}
	for i := range t.data {
		t.data[i] = v
	}
}

// AddInPlace adds o elementwise into t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.assertSame(o, "add")
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return t
}

// SubInPlace subtracts o elementwise from t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.assertSame(o, "sub")
	for i := range t.data {
		t.data[i] -= o.data[i]
	}
	return t
}

// MulInPlace multiplies t by o elementwise (Hadamard product).
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	t.assertSame(o, "mul")
	for i := range t.data {
		t.data[i] *= o.data[i]
	}
	return t
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) *Tensor {
	scale(t.data, s)
	return t
}

// AddScaledInPlace performs t += s*o, the axpy primitive used by optimizers.
func (t *Tensor) AddScaledInPlace(o *Tensor, s float32) *Tensor {
	t.assertSame(o, "addScaled")
	axpy(t.data, o.data, s)
	return t
}

// Sub returns t - o as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Mul returns the elementwise product as a new tensor.
func (t *Tensor) Mul(o *Tensor) *Tensor { return t.Clone().MulInPlace(o) }

// Scale returns s*t as a new tensor.
func (t *Tensor) Scale(s float32) *Tensor { return t.Clone().ScaleInPlace(s) }

// SignInPlace replaces each element with its sign: +1 for positive values
// and +Inf, −1 for negative values and −Inf, +0 for ±0 and NaN. It works on
// the bit pattern without branches, because a compare-and-branch
// mispredicts on about half the elements of a random-sign gradient (FGSM's
// input).
func (t *Tensor) SignInPlace() *Tensor {
	const sign, one, inf = 1 << 31, 0x3f800000, 0x7f800000
	for i, v := range t.data {
		b := math.Float32bits(v)
		mag := b &^ sign
		// Bit 31 of mag+(sign−1) is set iff mag ≠ 0; bit 31 of inf−mag is
		// set iff mag > inf (NaN). keep is all ones iff both say "a sign".
		keep := -(((mag + sign - 1) &^ (inf - mag)) >> 31)
		t.data[i] = math.Float32frombits((b&sign | one) & keep)
	}
	return t
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// String implements fmt.Stringer with a compact summary.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(n=%d, mean=%.4g)", t.shape, len(t.data), t.Mean())
}
