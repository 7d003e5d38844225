package defense

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// ContrastiveConfig parameterises the contrastive fine-tuning defense
// (SimCLR-style NT-Xent with a positive margin, as §IV-D describes).
type ContrastiveConfig struct {
	Epochs     int     // contrastive pre-training epochs over the set
	Batch      int     // scenes per batch (2 views each)
	LR         float32 // Adam learning rate for backbone + projection head
	Tau        float64 // softmax temperature
	Margin     float64 // positive-pair margin
	EmbedDim   int     // projection output dimension
	HeadEpochs int     // detection-head refit epochs on clean data
	HeadLR     float32
	Seed       int64
}

// DefaultContrastiveConfig returns the settings used in the experiments.
func DefaultContrastiveConfig() ContrastiveConfig {
	return ContrastiveConfig{
		Epochs: 6, Batch: 8, LR: 3e-4,
		Tau: 0.2, Margin: 0.05, EmbedDim: 32,
		HeadEpochs: 8, HeadLR: 1e-3, Seed: 21,
	}
}

// ContrastiveFineTune returns a copy of the base detector whose backbone
// has been fine-tuned with the InfoNCE objective (two augmented views per
// scene, in-batch negatives) and whose detection head has then been refit
// on clean data. The base detector is not modified.
func ContrastiveFineTune(base *detect.Detector, set *dataset.SignSet, cfg ContrastiveConfig) *detect.Detector {
	out := base.Clone()
	rng := xrand.New(cfg.Seed)

	// The contrastive phase trains the backbone (all layers but the
	// prediction head) through a projection head.
	layers := out.Net.Layers()
	backbone := nn.NewSequential(layers[:len(layers)-1]...)

	// Projection head g(·): backbone features → normalised embedding.
	g := out.Grid
	featDim := 48 * g * g
	proj := nn.NewSequential(
		nn.NewFlatten(),
		nn.NewLinear(rng.Split(), featDim, 64),
		nn.NewLeakyReLU(0.1),
		nn.NewLinear(rng.Split(), 64, cfg.EmbedDim),
	)

	params := append(backbone.Params(), proj.Params()...)
	opt := nn.NewAdam(cfg.LR)

	idx := make([]int, set.Len())
	for i := range idx {
		idx[i] = i
	}

	nn.Epochs(rng, idx, cfg.Epochs, cfg.Batch, func(_ int, b []int) {
		// Two augmented views per scene.
		views := make([]*imaging.Image, 0, 2*len(b))
		for _, k := range b {
			img := set.Scenes[k].Img
			views = append(views, augmentView(rng, img), augmentView(rng, img))
		}

		// Pass 1: embeddings (forward only).
		raw := make([]*tensor.Tensor, len(views))
		unit := make([][]float64, len(views))
		norms := make([]float64, len(views))
		for i, v := range views {
			z := proj.Forward(backbone.Forward(v.Tensor(), true), true)
			raw[i] = z.Clone()
			u, n := normalise(z)
			unit[i] = u
			norms[i] = n
		}

		// NT-Xent gradients w.r.t. the unit embeddings.
		gradU := ntXentGrad(unit, cfg.Tau, cfg.Margin)

		// Pass 2: backprop each view with its embedding gradient.
		opt.TrainStep(params, func() int {
			for i, v := range views {
				gz := normBackward(raw[i], unit[i], norms[i], gradU[i])
				feat := backbone.Forward(v.Tensor(), true)
				proj.Forward(feat, true) // restore proj caches
				gFeat := proj.Backward(gz)
				backbone.Backward(gFeat)
			}
			return len(views)
		})
	}, nil)

	// Detection refit on clean data: the contrastive pre-training moved
	// the backbone, so the whole network is fine-tuned at a low rate to
	// restore detection calibration while keeping the contrastive-shaped
	// features (freezing the backbone here loses too much accuracy).
	headOpt := nn.NewAdam(cfg.HeadLR)
	nn.Epochs(rng, idx, cfg.HeadEpochs, cfg.Batch, func(_ int, b []int) {
		headOpt.TrainStep(out.Net.Params(), func() int {
			for _, k := range b {
				sc := set.Scenes[k]
				rawOut := out.Net.Forward(sc.Img.Tensor(), true)
				_, grad := out.LossGrad(rawOut, detect.GTBoxes(sc))
				out.Net.Backward(grad)
			}
			return len(b)
		})
	}, nil)
	return out
}

// augmentView produces one stochastic view: brightness jitter, small
// translation, random resize-pad and sensor noise.
func augmentView(rng *xrand.RNG, img *imaging.Image) *imaging.Image {
	v := img.AdjustBrightness(float32(rng.Uniform(0.7, 1.3)))
	v = v.Translate(rng.Intn(7)-3, rng.Intn(7)-3)
	if rng.Bool(0.5) {
		v = imaging.RandomResizePad(rng, v, 0.85, 0)
	}
	v = v.AddGaussianNoise(rng, 0.02)
	return v.Clamp()
}

// normalise returns the unit vector and norm of an embedding tensor.
func normalise(z *tensor.Tensor) ([]float64, float64) {
	d := z.Data()
	var sq float64
	for _, v := range d {
		sq += float64(v) * float64(v)
	}
	n := math.Sqrt(sq) + 1e-12
	u := make([]float64, len(d))
	for i, v := range d {
		u[i] = float64(v) / n
	}
	return u, n
}

// normBackward maps a gradient w.r.t. the unit embedding back to the raw
// embedding: dL/dz = (g − u·(u·g)) / ‖z‖.
func normBackward(raw *tensor.Tensor, u []float64, norm float64, g []float64) *tensor.Tensor {
	var dot float64
	for i := range u {
		dot += u[i] * g[i]
	}
	out := tensor.New(raw.Shape()...)
	od := out.Data()
	for i := range u {
		od[i] = float32((g[i] - u[i]*dot) / norm)
	}
	return out
}

// ntXentGrad computes the gradients of the margin NT-Xent loss w.r.t. each
// unit embedding. Views 2i and 2i+1 are positives of each other; all other
// in-batch views are negatives.
func ntXentGrad(u [][]float64, tau, margin float64) [][]float64 {
	n := len(u)
	dim := len(u[0])
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = make([]float64, dim)
	}

	sim := func(a, b int) float64 {
		var s float64
		for k := 0; k < dim; k++ {
			s += u[a][k] * u[b][k]
		}
		return s
	}

	for a := 0; a < n; a++ {
		pos := a ^ 1 // paired view index
		// Stable softmax over all b != a with the margin applied to the positive.
		logits := make([]float64, 0, n-1)
		ids := make([]int, 0, n-1)
		maxL := math.Inf(-1)
		for b := 0; b < n; b++ {
			if b == a {
				continue
			}
			s := sim(a, b)
			if b == pos {
				s -= margin
			}
			l := s / tau
			logits = append(logits, l)
			ids = append(ids, b)
			if l > maxL {
				maxL = l
			}
		}
		var zSum float64
		for i := range logits {
			logits[i] = math.Exp(logits[i] - maxL)
			zSum += logits[i]
		}
		// dL_a/ds_ab = (p_b − 1[b=pos]) / tau; accumulate into u_a and u_b.
		inv := 1 / (tau * float64(n)) // mean over anchors
		for i, b := range ids {
			c := (logits[i]/zSum - b2f(b == pos)) * inv
			for k := 0; k < dim; k++ {
				grads[a][k] += c * u[b][k]
				grads[b][k] += c * u[a][k]
			}
		}
	}
	return grads
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
