// Package attack implements the six adversarial perception attacks studied
// in the paper: Gaussian noise, FGSM, Auto-PGD, SimBA, RP2 and CAP-Attack.
//
// White-box attacks consume an Objective — the victim model wrapped with
// "what the attacker wants" — which exposes the loss whose increase harms
// the victim together with its pixel gradient. Black-box attacks (SimBA)
// only use the Objective's scalar Score query. Attacks optionally restrict
// perturbations to a pixel mask (the lead-vehicle region for the regression
// task, the sign surface for RP2), matching the paper's protocol of placing
// patches "in the region of the leading vehicle in each video frame".
package attack

import (
	"math"

	"repro/internal/box"
	"repro/internal/imaging"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Objective is the attacker's view of a victim model.
type Objective interface {
	// LossGrad returns a loss whose increase harms the victim, and the
	// gradient of that loss with respect to the input pixels.
	LossGrad(img *imaging.Image) (float64, *tensor.Tensor)
	// Score returns a scalar the attacker wants to drive down (e.g. the
	// victim's detection confidence, or the negated predicted distance).
	// Black-box attacks use only this query.
	Score(img *imaging.Image) float64
}

// BoxMask builds a {0,1} pixel mask over a c×h×w image that is 1 inside
// the given box expanded by expand pixels; nil-mask semantics (attack the
// whole image) are expressed by passing a nil mask to the attacks.
func BoxMask(c, h, w int, b box.Box, expand float64) *tensor.Tensor {
	return BoxMaskInto(tensor.New(c, h, w), b, expand)
}

// BoxMaskInto is BoxMask writing into an existing (c,h,w) mask tensor,
// which per-frame attackers reuse across frames. The mask is zeroed first.
//
//advlint:noalloc
func BoxMaskInto(m *tensor.Tensor, b box.Box, expand float64) *tensor.Tensor {
	c, h, w := m.Dim(0), m.Dim(1), m.Dim(2)
	m.Zero()
	eb := b.Expand(expand).Clip(float64(w), float64(h))
	x0, y0 := int(eb.X0), int(eb.Y0)
	x1, y1 := int(eb.X1+0.999), int(eb.Y1+0.999)
	for ch := 0; ch < c; ch++ {
		for y := y0; y < y1 && y < h; y++ {
			if y < 0 {
				continue
			}
			for x := x0; x < x1 && x < w; x++ {
				if x < 0 {
					continue
				}
				m.Data()[(ch*h+y)*w+x] = 1
			}
		}
	}
	return m
}

// applyMask multiplies g by the mask in place when mask is non-nil.
func applyMask(g, mask *tensor.Tensor) {
	if mask != nil {
		g.MulInPlace(mask)
	}
}

// Gaussian adds zero-mean Gaussian noise with the given std dev, optionally
// restricted to a mask, and clamps to the valid pixel range. It is the
// paper's unoptimised baseline attack (Eq. 1).
func Gaussian(rng *xrand.RNG, img *imaging.Image, sigma float64, mask *tensor.Tensor) *imaging.Image {
	out := img.Clone()
	md := []float32(nil)
	if mask != nil {
		md = mask.Data()
	}
	for i := range out.Pix {
		if md != nil && md[i] == 0 {
			continue
		}
		out.Pix[i] += float32(rng.Normal(0, sigma))
	}
	return out.Clamp()
}

// FGSM performs the single-step fast gradient sign attack (Eq. 2):
// x_adv = clamp(x + ε·sign(∇x J)).
func FGSM(obj Objective, img *imaging.Image, eps float64, mask *tensor.Tensor) *imaging.Image {
	return FGSMInto(imaging.NewImage(img.C, img.H, img.W), obj, img, eps, mask)
}

// FGSMInto is FGSM writing the adversarial frame into dst, which must match
// img's geometry and not alias it. With the model workspace warm, a
// steady-state per-frame FGSM step allocates nothing.
//
//advlint:noalloc
func FGSMInto(dst *imaging.Image, obj Objective, img *imaging.Image, eps float64, mask *tensor.Tensor) *imaging.Image {
	_, grad := obj.LossGrad(img)
	grad.SignInPlace()
	applyMask(grad, mask)
	copy(dst.Pix, img.Pix)
	dst.Tensor().AddScaledInPlace(grad, float32(eps))
	return dst.Clamp()
}

// APGDConfig parameterises Auto-PGD.
type APGDConfig struct {
	Eps   float64 // L∞ budget
	Steps int     // total iterations
	Rho   float64 // step-halving success-rate threshold (Croce & Hein use 0.75)
	Alpha float64 // momentum mixing factor for the iterate update
}

// DefaultAPGDConfig returns the settings used across the experiments.
func DefaultAPGDConfig(eps float64) APGDConfig {
	return APGDConfig{Eps: eps, Steps: 40, Rho: 0.75, Alpha: 0.75}
}

// AutoPGD runs the auto projected gradient descent attack (Eq. 3): an
// iterative sign-gradient ascent on the objective loss with momentum and
// an adaptive step size that halves when progress stalls, always keeping
// the best iterate found. The perturbation stays inside the ε L∞ ball
// around the original image (optionally masked) and the valid pixel range.
// The loop allocates its perturbation, momentum and candidate buffers once
// and reuses them across all steps; the gradient evaluated for the
// best-iterate bookkeeping doubles as the next step's ascent direction
// (the iterate is unchanged in between, so the gradient is identical),
// halving the number of forward/backward passes per step.
func AutoPGD(obj Objective, img *imaging.Image, cfg APGDConfig, mask *tensor.Tensor) *imaging.Image {
	orig := img.Tensor()
	x := img.Clone()
	xT := x.Tensor()
	step := 2 * cfg.Eps // Croce & Hein's initial step size

	bestLoss, grad := obj.LossGrad(x)
	best := x.Clone()
	prev := x.Clone()
	prevT := prev.Tensor()

	// Reusable step buffers: candidate, momentum blend, carry term.
	z := xT.Clone()
	xNew := xT.Clone()
	carry := xT.Clone()

	checkpoint := cfg.Steps / 5
	if checkpoint < 1 {
		checkpoint = 1
	}
	improved := 0

	for t := 0; t < cfg.Steps; t++ {
		grad.SignInPlace()
		applyMask(grad, mask)

		// Candidate step.
		copy(z.Data(), xT.Data())
		z.AddScaledInPlace(grad, float32(step))
		project(z, orig, cfg.Eps, mask)

		// Momentum: blend the candidate with the previous movement direction.
		copy(xNew.Data(), z.Data())
		xNew.ScaleInPlace(float32(cfg.Alpha))
		copy(carry.Data(), xT.Data())
		carry.SubInPlace(prevT)
		carry.AddInPlace(xT)
		carry.ScaleInPlace(float32(1 - cfg.Alpha))
		xNew.AddInPlace(carry)
		project(xNew, orig, cfg.Eps, mask)

		copy(prev.Pix, x.Pix)
		copy(x.Pix, xNew.Data())
		x.Clamp()

		var loss float64
		loss, grad = obj.LossGrad(x)
		if loss > bestLoss {
			bestLoss = loss
			copy(best.Pix, x.Pix)
			improved++
		}

		// Adaptive step halving at checkpoints: if fewer than rho·interval
		// steps improved the best loss, halve the step and restart from the
		// best iterate found so far (refreshing the gradient there).
		if (t+1)%checkpoint == 0 {
			if float64(improved) < cfg.Rho*float64(checkpoint) {
				step /= 2
				copy(x.Pix, best.Pix)
				copy(prev.Pix, best.Pix)
				_, grad = obj.LossGrad(x)
			}
			improved = 0
		}
	}
	return best
}

// project clips z into the ε L∞ ball around orig (and zeroes any movement
// outside the mask), then into the valid pixel range. Each clamp chooses
// between bit patterns known up front, which the compiler turns into
// conditional moves: Auto-PGD's steps land on and inside the ball's faces
// in no predictable order, and a branch per clamp would mispredict on a
// large share of pixels. The choices are those of the branching form — d
// = z − o past ε gives ε, else below −ε gives −ε; o + d below 0 gives +0,
// else above 1 gives 1; every comparison with a NaN is false, so a NaN
// passes both clamps — so the bits are the same. Which NaN a sum of two
// NaNs keeps is the compiler's choice of first operand, so it is set
// explicitly: o's, quieted, as the branching form compiled on amd64 keeps
// it. The mask stays a branch: a box mask is long runs of 0 and 1, which
// predict well, and the pixels outside it skip the clamps.
func project(z, orig *tensor.Tensor, eps float64, mask *tensor.Tensor) {
	zd := z.Data()
	od := orig.Data()[:len(zd)]
	var md []float32
	if mask != nil {
		md = mask.Data()[:len(zd)]
	}
	e := float32(eps)
	ne, eb, nb := -e, math.Float32bits(e), math.Float32bits(-e)
	for i, z := range zd {
		o := od[i]
		if md != nil && md[i] == 0 { // a mask entry of ±0 freezes the pixel
			zd[i] = o
			continue
		}
		d := z - o
		db := math.Float32bits(d)
		if d < ne {
			db = nb
		}
		if d > e { // after the −ε test, so it wins as the first branch would
			db = eb
		}
		v := o + math.Float32frombits(db)
		vb, ob := math.Float32bits(v), math.Float32bits(o)
		if v < 0 {
			vb = 0
		}
		if v > 1 {
			vb = 0x3f800000 // 1
		}
		if ob&^(1<<31) > 0x7f800000 { // o is NaN
			vb = ob | 1<<22
		}
		zd[i] = math.Float32frombits(vb)
	}
}

// PGD is plain iterative FGSM without Auto-PGD's momentum or adaptive step
// halving; it exists as the ablation baseline for Auto-PGD.
func PGD(obj Objective, img *imaging.Image, eps float64, steps int, mask *tensor.Tensor) *imaging.Image {
	orig := img.Tensor()
	x := img.Clone()
	step := eps / float64(steps) * 2.5
	for t := 0; t < steps; t++ {
		_, grad := obj.LossGrad(x)
		grad.SignInPlace()
		applyMask(grad, mask)
		xt := x.Tensor()
		xt.AddScaledInPlace(grad, float32(step))
		project(xt, orig, eps, mask)
	}
	return x
}
