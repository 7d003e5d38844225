package attack

import (
	"math"

	"repro/internal/box"
	"repro/internal/imaging"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// RP2Config parameterises the Robust Physical Perturbations attack
// (Eykholt et al., Eq. 6).
type RP2Config struct {
	Iters      int     // optimisation iterations
	LR         float32 // Adam learning rate on the patch
	EOTSamples int     // transform samples per iteration
	LambdaMask float64 // weight of the ‖M·δ‖ magnitude penalty
	LambdaNPS  float64 // weight of the non-printability score
	MaxDelta   float64 // hard cap on per-pixel patch magnitude
	Seed       int64
}

// DefaultRP2Config returns the settings used across the experiments.
func DefaultRP2Config() RP2Config {
	return RP2Config{
		Iters: 60, LR: 0.05, EOTSamples: 4,
		LambdaMask: 0.02, LambdaNPS: 0.01, MaxDelta: 0.55, Seed: 13,
	}
}

// printablePalette approximates the colors a commodity printer reproduces
// reliably; NPS penalises patch colors far from all palette entries.
var printablePalette = []imaging.Color{
	imaging.Black, imaging.White, imaging.Red, imaging.DarkRed,
	imaging.Gray, imaging.Yellow, imaging.Blue, imaging.Grass,
}

// RP2 optimises a physical-style patch confined to the sign surface (mask
// from the ground-truth box) that survives viewpoint and lighting changes.
// Each iteration ascends the expected victim loss over sampled transforms
// (expectation over transforms, EOT) while penalising patch magnitude and
// non-printable colors. The returned image is the clean input with the
// optimised patch applied.
func RP2(obj Objective, img *imaging.Image, signBox box.Box, cfg RP2Config) *imaging.Image {
	rng := xrand.New(cfg.Seed)
	mask := BoxMask(img.C, img.H, img.W, signBox, -1) // shrink 1px inside the sign
	delta := tensor.New(img.C, img.H, img.W)

	// Adam state for the patch.
	m := tensor.New(img.C, img.H, img.W)
	v := tensor.New(img.C, img.H, img.W)
	beta1, beta2 := 0.9, 0.999

	for it := 1; it <= cfg.Iters; it++ {
		grad := tensor.New(img.C, img.H, img.W)

		for s := 0; s < cfg.EOTSamples; s++ {
			// Sample a transform: brightness scale, small shift, sensor noise.
			scale := float32(rng.Uniform(0.8, 1.2))
			dy := rng.Intn(3) - 1
			dx := rng.Intn(3) - 1

			// Build the transformed adversarial image.
			adv := img.Clone()
			advT := adv.Tensor()
			advT.AddInPlace(delta.Mul(mask))
			adv.Clamp()
			tr := adv.Translate(dy, dx).AdjustBrightness(scale)
			tr = tr.AddGaussianNoise(rng, 0.01)
			tr.Clamp()

			// Victim gradient, mapped back through the transform: brightness
			// scales the gradient; translation shifts it back.
			_, g := obj.LossGrad(tr)
			g.ScaleInPlace(scale)
			gImg := imaging.FromTensor(g).Translate(-dy, -dx)
			grad.AddInPlace(gImg.Tensor())
		}
		grad.ScaleInPlace(1 / float32(cfg.EOTSamples))

		// Ascend victim loss => descend its negation; add penalty gradients.
		gd := grad.Data()
		dd := delta.Data()
		md := mask.Data()
		for i := range gd {
			if md[i] == 0 {
				gd[i] = 0
				continue
			}
			pen := float32(cfg.LambdaMask) * sign32(dd[i]) // d|δ|/dδ
			pen += float32(cfg.LambdaNPS) * npsGrad(img, delta, i)
			gd[i] = -gd[i] + pen
		}

		// Adam descent step on the combined objective.
		bc1 := 1 - math.Pow(beta1, float64(it))
		bc2 := 1 - math.Pow(beta2, float64(it))
		mdat := m.Data()
		vdat := v.Data()
		for i, g := range gd {
			mdat[i] = float32(beta1)*mdat[i] + float32(1-beta1)*g
			vdat[i] = float32(beta2)*vdat[i] + float32(1-beta2)*g*g
			mh := float64(mdat[i]) / bc1
			vh := float64(vdat[i]) / bc2
			dd[i] -= cfg.LR * float32(mh/(math.Sqrt(vh)+1e-8))
			// Hard patch-magnitude cap keeps the patch "physical".
			if dd[i] > float32(cfg.MaxDelta) {
				dd[i] = float32(cfg.MaxDelta)
			} else if dd[i] < -float32(cfg.MaxDelta) {
				dd[i] = -float32(cfg.MaxDelta)
			}
		}
	}

	out := img.Clone()
	out.Tensor().AddInPlace(delta.MulInPlace(mask))
	return out.Clamp()
}

// npsGrad approximates the gradient of the per-pixel NPS term for flat
// index i (which lives in channel i/plane at spatial position i%plane):
// 2·(color − nearestPaletteColor) in that channel.
func npsGrad(img *imaging.Image, delta *tensor.Tensor, i int) float32 {
	plane := img.H * img.W
	ch := i / plane
	pos := i % plane
	var col imaging.Color
	for c := 0; c < 3; c++ {
		v := img.Pix[c*plane+pos] + delta.Data()[c*plane+pos]
		col[c] = clamp01(v)
	}
	best := nearestPalette(col)
	return 2 * (col[ch] - best[ch])
}

func nearestPalette(col imaging.Color) imaging.Color {
	bestD := math.MaxFloat64
	best := printablePalette[0]
	for _, p := range printablePalette {
		d := colorDist2(col, p)
		if d < bestD {
			bestD, best = d, p
		}
	}
	return best
}

func colorDist2(a, b imaging.Color) float64 {
	var d float64
	for i := range a {
		x := float64(a[i] - b[i])
		d += x * x
	}
	return d
}

func sign32(v float32) float32 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
