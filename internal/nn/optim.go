package nn

import (
	"math"

	"repro/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR     float32
	Beta1  float32
	Beta2  float32
	Eps    float32
	WDecay float32

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with standard defaults for the betas.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Tensor),
		v: make(map[*Param]*tensor.Tensor),
	}
}

// Step applies one update from the accumulated gradients. It does not
// zero them; callers decide when to clear them (ZeroGrad) so that gradient
// accumulation across a mini-batch works naturally.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(float64(a.Beta1), float64(a.t))
	bc2 := 1 - math.Pow(float64(a.Beta2), float64(a.t))
	for _, p := range params {
		p.MarkMutated()
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := a.v[p]
		md := m.Data()
		vd := v.Data()
		gd := p.Grad.Data()
		pd := p.Value.Data()
		for i, g := range gd {
			if a.WDecay != 0 { //advlint:floatcmp-ok config sentinel: exact 0 disables decay
				g += a.WDecay * pd[i]
			}
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*g
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*g*g
			mh := float64(md[i]) / bc1
			vh := float64(vd[i]) / bc2
			pd[i] -= a.LR * float32(mh/(math.Sqrt(vh)+float64(a.Eps)))
		}
	}
}

// ClipGradNorm rescales gradients so their global L2 norm is at most max.
// It returns the pre-clip norm, which trainers log to monitor stability.
func ClipGradNorm(params []*Param, max float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > max && norm > 0 {
		scale := float32(max / norm)
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}
