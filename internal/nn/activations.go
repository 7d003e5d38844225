package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, elementwise max(0, x).
type ReLU struct {
	scratch
	lastIn *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	ws := r.workspace()
	lastIn := ws.TensorLike(r, "lastIn", x)
	copy(lastIn.Data(), x.Data())
	r.lastIn = lastIn
	out := ws.TensorLike(r, "out", x)
	d := out.Data()
	for i, v := range x.Data() {
		if v < 0 {
			v = 0
		}
		d[i] = v
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := r.workspace().TensorLike(r, "dx", grad)
	od := out.Data()
	xd := r.lastIn.Data()
	for i, g := range grad.Data() {
		if xd[i] <= 0 {
			g = 0
		}
		od[i] = g
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// LeakyReLU is max(x, alpha*x); a small negative slope keeps gradients
// flowing through inactive units, which stabilises the tiny detectors here.
// Backward reads the sign of the layer's own forward output instead of a
// copy of its input: for a finite alpha > 0, out ≤ 0 exactly when x ≤ 0
// (±0 pass through, NaN stays NaN, alpha·x rounding to −0 is still ≤ 0,
// and −Inf stays −Inf, where a zero slope would make it NaN). Both
// directions pick between v and alpha·v on the bit pattern, without a
// branch: activation signs are close to random, so a branch mispredicts
// on about half the elements.
type LeakyReLU struct {
	Alpha float32

	scratch
	lastOut *tensor.Tensor
}

var _ Layer = (*LeakyReLU)(nil)

// NewLeakyReLU returns a LeakyReLU with the given negative slope, which
// must be finite and > 0 for Backward's sign test to hold.
func NewLeakyReLU(alpha float32) *LeakyReLU {
	if !(alpha > 0 && alpha <= math.MaxFloat32) {
		panic(fmt.Sprintf("nn: LeakyReLU slope %v, want finite and > 0", alpha))
	}
	return &LeakyReLU{Alpha: alpha}
}

// Forward implements Layer: out = alpha·x where x < 0, else x.
func (r *LeakyReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := r.workspace().TensorLike(r, "out", x)
	d := out.Data()
	a := r.Alpha
	for i, v := range x.Data() {
		b := math.Float32bits(v)
		// All ones where v < 0: sign set and not NaN (−0·alpha is −0).
		m := uint32(int32(b)>>31) &^ nanMask(b)
		d[i] = math.Float32frombits(b ^ (b^math.Float32bits(a*v))&m)
	}
	r.lastOut = out
	return out
}

// Backward implements Layer: dx = alpha·g where out ≤ 0, else g.
func (r *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := r.workspace().TensorLike(r, "dx", grad)
	od := out.Data()
	yd := r.lastOut.Data()[:len(od)]
	a := r.Alpha
	for i, g := range grad.Data() {
		y, b := math.Float32bits(yd[i]), math.Float32bits(g)
		// All ones where out ≤ 0: sign set or +0, and not NaN.
		m := (uint32(int32(y)>>31) | ^uint32(int32(y|-y)>>31)) &^ nanMask(y)
		od[i] = math.Float32frombits(b ^ (b^math.Float32bits(a*g))&m)
	}
	return out
}

// nanMask returns all ones when the float32 bit pattern b is a NaN, else 0.
func nanMask(b uint32) uint32 { return uint32(int32(0x7f800000-b&0x7fffffff) >> 31) }

// Params implements Layer.
func (r *LeakyReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *LeakyReLU) Clone() Layer { return &LeakyReLU{Alpha: r.Alpha} }

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	scratch
	lastOut *tensor.Tensor
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	ws := t.workspace()
	out := ws.TensorLike(t, "out", x)
	d := out.Data()
	for i, v := range x.Data() {
		d[i] = float32(math.Tanh(float64(v)))
	}
	lastOut := ws.TensorLike(t, "lastOut", x)
	copy(lastOut.Data(), d)
	t.lastOut = lastOut
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := t.workspace().TensorLike(t, "dx", grad)
	od := out.Data()
	yd := t.lastOut.Data()
	for i, g := range grad.Data() {
		od[i] = g * (1 - yd[i]*yd[i])
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Clone implements Layer.
func (t *Tanh) Clone() Layer { return &Tanh{} }

// Sigmoid is the logistic activation 1/(1+e^-x).
type Sigmoid struct {
	scratch
	lastOut *tensor.Tensor
}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// SigmoidScalar applies the logistic function to a single value.
func SigmoidScalar(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	ws := s.workspace()
	out := ws.TensorLike(s, "out", x)
	d := out.Data()
	for i, v := range x.Data() {
		d[i] = SigmoidScalar(v)
	}
	lastOut := ws.TensorLike(s, "lastOut", x)
	copy(lastOut.Data(), d)
	s.lastOut = lastOut
	return out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := s.workspace().TensorLike(s, "dx", grad)
	od := out.Data()
	yd := s.lastOut.Data()
	for i, g := range grad.Data() {
		od[i] = g * yd[i] * (1 - yd[i])
	}
	return out
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Clone implements Layer.
func (s *Sigmoid) Clone() Layer { return &Sigmoid{} }

// Flatten reshapes the input to a flat vector — or, for a rank-4 [N,C,H,W]
// batch, to a [N, C·H·W] matrix so a following Linear sees one row per
// sample. Backward restores the original shape. Both directions are views
// over the caller's storage, memoised so the steady state allocates no
// fresh headers.
type Flatten struct {
	lastShape []int
	fwdView   viewCache
	bwdView   viewCache
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if !x.ShapeEq(f.lastShape...) {
		f.lastShape = x.Shape()
	}
	if x.Rank() == 4 {
		return f.fwdView.of2(x, x.Dim(0), x.Len()/x.Dim(0))
	}
	return f.fwdView.of1(x)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return f.bwdView.ofShape(grad, f.lastShape)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }
