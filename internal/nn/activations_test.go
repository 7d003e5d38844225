package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestLeakyReLUBackwardMatchesInputCopy pins the branch-free LeakyReLU to
// the branching layer it replaced, bit for bit: the forward to
// "alpha·x where x < 0, else x", and the backward, which tests the sign of
// the layer's own forward output, to the one that tested a copy of the
// forward input (g·alpha where x ≤ 0, else g). The table covers ±0,
// quiet and signalling NaNs of either sign, ±Inf, subnormals, negatives
// whose alpha·x underflows to −0, and ±MaxFloat32, against gradients that
// hold the same edge cases. It runs at every rotation, behind 0 to 7
// leading filler elements, so each entry sits in every lane of an 8-float
// vector and also in the scalar tail past the last whole vector.
func TestLeakyReLUBackwardMatchesInputCopy(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | 1<<31)
	in := []float32{
		0, float32(math.Copysign(0, -1)), nan, negNaN,
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001), // signalling NaNs
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x807fffff), // largest negative subnormal
		-1e-45, -3e-45,                   // alpha·x rounds to −0 at alpha 0.1
		1, -1, 0.5, -2.5,
		math.MaxFloat32, -math.MaxFloat32,
	}
	grads := []float32{-1.75, 0.5, 0, float32(math.Copysign(0, -1)), nan, math.Float32frombits(0xff800001), float32(math.Inf(-1))}
	bits := math.Float32bits
	for _, alpha := range []float32{0.1, 1, 3, math.MaxFloat32} {
		r := NewLeakyReLU(alpha)
		for lead := range 8 {
			for rot := range in {
				xs := make([]float32, lead+len(in))
				for i := range xs {
					xs[i] = -0.75 // filler
					if i >= lead {
						xs[i] = in[(i-lead+rot)%len(in)]
					}
				}
				x := tensor.FromSlice(xs, len(xs))
				y := r.Forward(x, false).Data()
				for i, v := range xs {
					want := v
					if v < 0 {
						want = alpha * v
					}
					if bits(y[i]) != bits(want) {
						t.Errorf("alpha %v, lead %d, [%d] x = %v (%#x): out = %v (%#x), want %v (%#x)", alpha, lead, i, v, bits(v), y[i], bits(y[i]), want, bits(want))
					}
				}
				for shift := range grads {
					grad := tensor.New(len(xs))
					for i := range grad.Data() {
						grad.Data()[i] = grads[(i+shift)%len(grads)]
					}
					got := r.Backward(grad).Data()
					for i, v := range xs {
						want := grad.Data()[i]
						if v <= 0 {
							want *= alpha
						}
						if bits(got[i]) != bits(want) {
							t.Errorf("alpha %v, lead %d, [%d] x = %v (%#x), g = %v: dx = %v (%#x), want %v (%#x)", alpha, lead, i, v, bits(v),
								grad.Data()[i], got[i], bits(got[i]), want, bits(want))
						}
					}
				}
			}
		}
	}
}

// TestNewLeakyReLURejectsNegativeSlope checks the constructor refuses the
// slopes for which the output-sign test in Backward would not hold:
// negative ones, NaN, 0 (0·(−Inf) is NaN) and +Inf (−0·Inf is NaN).
func TestNewLeakyReLURejectsNegativeSlope(t *testing.T) {
	for _, alpha := range []float32{-0.1, float32(math.Inf(-1)), float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLeakyReLU(%v) did not panic", alpha)
				}
			}()
			NewLeakyReLU(alpha)
		}()
	}
}
