// Package scene procedurally generates the two synthetic datasets used by
// the reproduction, standing in for the Traffic Signs Detection dataset and
// the comma2k19 driving video of the paper:
//
//   - Stop-sign scenes: outdoor backgrounds with clutter and a red octagon
//     sign (white rim + STOP glyphs) at a randomised position, scale,
//     rotation and illumination, with exact ground-truth bounding boxes.
//   - Driving scenes: a straight road rendered with a pinhole camera model
//     and a lead vehicle whose apparent size and road position follow the
//     true relative distance, with exact ground-truth distance and lead
//     bounding box. Sequences with smooth lead kinematics support the
//     frame-coherent CAP attack.
//
// All randomness flows through an explicit *xrand.RNG, so a seed fully
// determines a dataset.
package scene

import (
	"repro/internal/box"
	"repro/internal/imaging"
	"repro/internal/xrand"
)

// SignScene is one generated stop-sign example.
type SignScene struct {
	Img     *imaging.Image
	HasSign bool
	Box     box.Box // valid only when HasSign
}

// SignConfig controls the stop-sign generator.
type SignConfig struct {
	Size    int     // square image side in pixels
	MinR    float64 // min sign circumradius in pixels
	MaxR    float64 // max sign circumradius in pixels
	NegProb float64 // probability of a scene without a sign
	Noise   float64 // sensor noise std dev
}

// DefaultSignConfig returns the configuration used across the experiments.
// Signs are prominent (as in the paper's curated detection dataset) so the
// clean model reaches the high-90s detection scores the paper starts from.
func DefaultSignConfig() SignConfig {
	return SignConfig{Size: 64, MinR: 10, MaxR: 18, NegProb: 0.1, Noise: 0.01}
}

// GenerateSign renders one stop-sign scene.
func GenerateSign(rng *xrand.RNG, cfg SignConfig) SignScene {
	s := cfg.Size
	img := imaging.NewRGB(s, s)

	// Sky and ground with illumination jitter.
	bright := float32(rng.Uniform(0.75, 1.15))
	horizon := int(rng.Uniform(0.45, 0.65) * float64(s))
	img.VerticalGradient(0, horizon, imaging.SkyBlue.Scale(bright), imaging.LightGray.Scale(bright))
	img.VerticalGradient(horizon, s, imaging.Grass.Scale(bright), imaging.Grass.Scale(bright*0.7))

	// Road strip on the ground.
	roadY := horizon + rng.Intn(max(1, s/8))
	img.FillRect(roadY, 0, s, s, imaging.Asphalt.Scale(bright))

	// Background clutter: buildings and trees behind the horizon line.
	nClutter := 1 + rng.Intn(3)
	for i := 0; i < nClutter; i++ {
		w := 4 + rng.Intn(s/4)
		h := 4 + rng.Intn(s/3)
		x := rng.Intn(s)
		if rng.Bool(0.5) {
			col := imaging.Gray.Scale(float32(rng.Uniform(0.5, 1.1)))
			img.FillRect(horizon-h, x, horizon, x+w, col)
		} else {
			col := imaging.Grass.Scale(float32(rng.Uniform(0.5, 1.0)))
			img.FillCircle(float64(horizon-h/2), float64(x), float64(h)/2, col)
		}
	}

	sc := SignScene{Img: img}
	if !rng.Bool(cfg.NegProb) {
		r := rng.Uniform(cfg.MinR, cfg.MaxR)
		cx := rng.Uniform(r+2, float64(s)-r-2)
		cy := rng.Uniform(r+4, float64(s)*0.72)
		rot := rng.Uniform(-0.12, 0.12)
		drawStopSign(img, cx, cy, r, rot, bright)
		sc.HasSign = true
		sc.Box = box.FromCenter(cx, cy, 2*r*0.96, 2*r*0.96).Clip(float64(s), float64(s))
	}

	if cfg.Noise > 0 {
		addSensorNoise(img, rng, cfg.Noise)
	}
	return sc
}

// drawStopSign renders the pole, the white-rimmed red octagon and blocky
// STOP glyphs, matching the visual structure detectors key on.
func drawStopSign(img *imaging.Image, cx, cy, r, rot float64, bright float32) {
	// Pole below the sign.
	poleW := maxf(1, r/6)
	img.FillRect(int(cy), int(cx-poleW/2), img.H, int(cx+poleW/2), imaging.DarkGray.Scale(bright))

	// White rim octagon, then the red face slightly inset.
	rim := imaging.RegularPolygon(cx, cy, r, 8, rot+octRot)
	img.FillPolygon(rim, imaging.White.Scale(bright))
	face := imaging.RegularPolygon(cx, cy, r*0.88, 8, rot+octRot)
	img.FillPolygon(face, imaging.Red.Scale(bright))

	// STOP text: 4 glyphs of 3px + 3 gaps at unit scale = 15 units wide.
	scale := int(maxf(1, r/7))
	textW := (4*4 - 1) * scale
	textH := 5 * scale
	img.DrawGlyphText(int(cy)-textH/2, int(cx)-textW/2, "STOP", scale, imaging.White.Scale(bright))
}

// octRot orients the octagon flat-side-up like a real stop sign.
const octRot = 0.3926990816987241 // π/8

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// addSensorNoise adds N(0, std²) sensor noise to every pixel of img and
// clamps it to [0, 1], in place. It draws from rng once per pixel in pixel
// order, exactly as AddGaussianNoise followed by Clamp would, without the
// intermediate frame.
func addSensorNoise(img *imaging.Image, rng *xrand.RNG, std float64) {
	for i, v := range img.Pix {
		v += float32(rng.Normal(0, std))
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		img.Pix[i] = v
	}
}
