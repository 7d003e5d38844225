package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LeakyReLU is max(x, alpha*x); a small negative slope keeps gradients
// flowing through inactive units, which stabilises the tiny detectors here.
// Backward reads the sign of the layer's own forward output instead of a
// copy of its input: for a finite alpha > 0, out ≤ 0 exactly when x ≤ 0
// (±0 pass through, NaN stays NaN, alpha·x rounding to −0 is still ≤ 0,
// and −Inf stays −Inf, where a zero slope would make it NaN). Both
// directions run tensor's elementwise kernels.
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
	tensor.LeakyReLUInto(out, x, r.Alpha)
	r.lastOut = out
	return out
}

// Backward implements Layer: dx = alpha·g where out ≤ 0, else g.
func (r *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := r.workspace().TensorLike(r, "dx", grad)
	tensor.LeakyReLUBackwardInto(out, r.lastOut, grad, r.Alpha)
	return out
}

// Params implements Layer.
func (r *LeakyReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *LeakyReLU) Clone() Layer { return &LeakyReLU{Alpha: r.Alpha} }

// SigmoidScalar applies the logistic function to a single value.
func SigmoidScalar(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

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
