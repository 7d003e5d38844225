package nn

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TrainConfig controls a minibatch training run.
type TrainConfig struct {
	Epochs int
	Batch  int
	LR     float32
	Seed   int64
	// Logf, when non-nil, receives one line per epoch.
	Logf func(format string, args ...any)
}

// maxGradNorm is the global gradient L2 norm every training step clips to.
const maxGradNorm = 10

// TrainStep takes one optimisation step on params: it zeroes their
// gradients, runs fwdBwd (which accumulates the summed gradients of some
// samples and returns how many it summed), scales every gradient by
// 1/count, clips their global norm at maxGradNorm and applies one Adam
// update. It is the one place the trainers update weights.
func (a *Adam) TrainStep(params []*Param, fwdBwd func() int) {
	for _, p := range params {
		p.Grad.Zero()
	}
	s := 1 / float32(fwdBwd())
	for _, p := range params {
		p.Grad.ScaleInPlace(s)
	}
	clipGradNorm(params, maxGradNorm)
	a.step(params)
}

// Epochs runs epochs passes over idx. Each pass shuffles idx with rng, then
// calls batch with consecutive sub-slices of idx holding at most size
// indices, the last possibly short; a sub-slice aliases idx, so it is
// valid only during the call. end, when non-nil, runs after each pass.
func Epochs(rng *xrand.RNG, idx []int, epochs, size int, batch func(epoch int, b []int), end func(epoch int)) {
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for lo := 0; lo < len(idx); lo += size {
			batch(e, idx[lo:min(lo+size, len(idx))])
		}
		if end != nil {
			end(e)
		}
	}
}

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

// step applies one update from the accumulated gradients.
func (a *Adam) step(params []*Param) {
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

// clipGradNorm rescales gradients so their global L2 norm is at most max.
// It returns the pre-clip norm.
func clipGradNorm(params []*Param, max float64) float64 {
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
