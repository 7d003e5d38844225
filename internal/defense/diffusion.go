package defense

import (
	"math"

	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// DiffusionConfig parameterises the DDPM prior.
type DiffusionConfig struct {
	T          int     // diffusion timesteps
	BetaStart  float64 // linear noise schedule start
	BetaEnd    float64 // linear noise schedule end
	TrainSteps int     // optimisation steps
	Batch      int     // images per optimisation step
	LR         float32
	Seed       int64
	Logf       func(format string, args ...any)
}

// DefaultDiffusionConfig returns settings that train the prior to useful
// denoising quality on the synthetic scene distribution in a few minutes.
func DefaultDiffusionConfig() DiffusionConfig {
	return DiffusionConfig{
		T: 50, BetaStart: 1e-4, BetaEnd: 0.04,
		TrainSteps: 500, Batch: 8, LR: 2e-3, Seed: 31,
	}
}

// Diffusion is a small denoising diffusion probabilistic model over the
// clean scene distribution; DiffPIR uses it as the generative prior that
// pulls adversarially perturbed images back onto the data manifold.
type Diffusion struct {
	Net *UNet
	T   int

	betas    []float64
	alphaBar []float64 // cumulative ᾱ_t

	// Reusable restoration scratch (stack input, iterate, estimate, noise,
	// timestep schedule, per-call RNG), sized lazily on first use so
	// steady-state Restore calls never touch the allocator. A Clone gets
	// fresh scratch, so per-cell clones share no buffers.
	stackBuf   *tensor.Tensor
	rx, rx0    *tensor.Tensor
	rnoise     *tensor.Tensor
	schedule   []int
	restoreRNG *xrand.RNG
}

// NewDiffusion builds an untrained diffusion model.
func NewDiffusion(rng *xrand.RNG, cfg DiffusionConfig) *Diffusion {
	d := &Diffusion{
		Net:      NewUNet(rng, 5), // 3 image channels + 2 timestep channels
		T:        cfg.T,
		betas:    make([]float64, cfg.T),
		alphaBar: make([]float64, cfg.T),
	}
	prod := 1.0
	for t := 0; t < cfg.T; t++ {
		d.betas[t] = cfg.BetaStart + (cfg.BetaEnd-cfg.BetaStart)*float64(t)/float64(cfg.T-1)
		prod *= 1 - d.betas[t]
		d.alphaBar[t] = prod
	}
	return d
}

// Clone returns an independent copy (deep-copied network, shared
// immutable schedule), safe to use from another goroutine.
func (d *Diffusion) Clone() *Diffusion {
	return &Diffusion{Net: d.Net.Clone(), T: d.T, betas: d.betas, alphaBar: d.alphaBar}
}

// stack builds the 5-channel network input: the noisy image plus two
// constant channels embedding the timestep (t/T and ᾱ_t). The output lives
// in reusable scratch (valid until the next stack call on this model), so
// training steps and restoration iterations allocate nothing for it.
func (d *Diffusion) stack(x *tensor.Tensor, t int) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	if d.stackBuf == nil || !d.stackBuf.ShapeEq(5, h, w) {
		d.stackBuf = tensor.New(5, h, w)
	}
	out := d.stackBuf
	copy(out.Data()[:3*h*w], x.Data())
	tt := float32(float64(t) / float64(d.T))
	ab := float32(d.alphaBar[t])
	plane := out.Data()[3*h*w : 4*h*w]
	for i := range plane {
		plane[i] = tt
	}
	plane = out.Data()[4*h*w:]
	for i := range plane {
		plane[i] = ab
	}
	return out
}

// PredictNoise runs the UNet, returning ε̂(x_t, t).
func (d *Diffusion) PredictNoise(xt *tensor.Tensor, t int) *tensor.Tensor {
	return d.Net.Forward(d.stack(xt, t), false)
}

// Train fits the noise predictor with the standard DDPM objective:
// sample clean image, timestep and noise; minimise ‖ε − ε̂(x_t, t)‖².
// Images are supplied by next() so callers can stream from any dataset mix.
func (d *Diffusion) Train(cfg DiffusionConfig, next func() *imaging.Image) {
	rng := xrand.New(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	for step := 0; step < cfg.TrainSteps; step++ {
		d.Net.ZeroGrad()
		var lossSum float64
		for b := 0; b < cfg.Batch; b++ {
			img := next()
			x0 := img.Tensor()
			t := rng.Intn(d.T)
			ab := d.alphaBar[t]

			noise := tensor.New(x0.Shape()...)
			rng.FillNormal(noise.Data(), 0, 1)

			xt := x0.Scale(float32(math.Sqrt(ab)))
			xt.AddScaledInPlace(noise, float32(math.Sqrt(1-ab)))

			pred := d.Net.Forward(d.stack(xt, t), true)
			loss, grad := nn.MSE(pred, noise)
			lossSum += loss
			d.Net.Backward(grad)
		}
		for _, p := range d.Net.Params() {
			p.Grad.ScaleInPlace(1 / float32(cfg.Batch))
		}
		nn.ClipGradNorm(d.Net.Params(), 10)
		opt.Step(d.Net.Params())
		if cfg.Logf != nil && (step+1)%50 == 0 {
			cfg.Logf("diffusion: step %d/%d loss %.5f", step+1, cfg.TrainSteps, lossSum/float64(cfg.Batch))
		}
	}
}

// DiffPIRConfig parameterises the restoration loop (Zhu et al., Eq. 9).
type DiffPIRConfig struct {
	StartFrac float64 // start timestep as a fraction of T (noise injection)
	Steps     int     // number of reverse steps, ≥ 1 (timesteps are subsampled)
	SigmaY    float64 // assumed observation corruption level (attack strength)
	Zeta      float64 // stochasticity of the re-noising step in [0,1]
	Seed      int64
}

// DefaultDiffPIRConfig returns the settings used across the experiments.
// SigmaY is the assumed magnitude of the (unknown) adversarial corruption;
// it controls how strongly the final estimate is allowed to deviate from
// the observation.
func DefaultDiffPIRConfig() DiffPIRConfig {
	return DiffPIRConfig{StartFrac: 0.35, Steps: 12, SigmaY: 0.12, Zeta: 0.3, Seed: 33}
}

// Restore runs DiffPIR on a degraded observation y (an attacked image):
// inject noise to the start timestep, then alternate (1) diffusion
// denoising to estimate the clean image and (2) a proximal data-
// consistency step toward y, re-noising to the next timestep. With H = I
// (the degradation is unknown additive perturbation) the proximal update
// is a convex combination of the denoised estimate and y.
func (d *Diffusion) Restore(y *imaging.Image, cfg DiffPIRConfig) *imaging.Image {
	return d.RestoreInto(imaging.NewImage(y.C, y.H, y.W), y, cfg)
}

// RestoreInto is Restore writing the restored frame into dst, which must
// match y's geometry and not alias it; cfg.Steps must be at least 1. The
// restoration loop runs entirely in model-held scratch (iterate, estimate,
// noise, schedule, RNG), so with the scratch warm a per-frame restoration
// allocates nothing — the defense side of the closed-loop latency budget.
func (d *Diffusion) RestoreInto(dst, y *imaging.Image, cfg DiffPIRConfig) *imaging.Image {
	if dst.C != y.C || dst.H != y.H || dst.W != y.W {
		panic("defense: RestoreInto destination geometry mismatch")
	}
	if cfg.Steps < 1 {
		panic("defense: DiffPIR Steps must be at least 1")
	}
	if d.restoreRNG == nil {
		d.restoreRNG = xrand.New(cfg.Seed)
	} else {
		d.restoreRNG.Reseed(cfg.Seed)
	}
	rng := d.restoreRNG
	yT := y.Tensor()

	t0 := int(cfg.StartFrac * float64(d.T))
	if t0 < 1 {
		t0 = 1
	}
	if t0 >= d.T {
		t0 = d.T - 1
	}

	// Subsampled timestep schedule t0 = τ_0 > τ_1 > ... > τ_k = 0.
	steps := cfg.Steps
	if steps > t0 {
		steps = t0
	}
	d.schedule = d.schedule[:0]
	for i := 0; i <= steps; i++ {
		d.schedule = append(d.schedule, t0-i*t0/steps)
	}
	schedule := d.schedule

	if d.rx == nil || !d.rx.SameShape(yT) {
		d.rx = tensor.New(yT.Shape()...)
		d.rx0 = tensor.New(yT.Shape()...)
		d.rnoise = tensor.New(yT.Shape()...)
	}
	x, x0, noise := d.rx, d.rx0, d.rnoise

	// Initialise x at timestep t0 from y.
	ab0 := d.alphaBar[t0]
	copy(x.Data(), yT.Data())
	x.ScaleInPlace(float32(math.Sqrt(ab0)))
	rng.FillNormal(noise.Data(), 0, 1)
	x.AddScaledInPlace(noise, float32(math.Sqrt(1-ab0)))

	final := x
	for i := 0; i < steps; i++ {
		t := schedule[i]
		tNext := schedule[i+1]
		ab := d.alphaBar[t]

		// (1) Denoise: estimate x̂0 from the noise prediction.
		eps := d.PredictNoise(x, t)
		copy(x0.Data(), x.Data())
		x0.AddScaledInPlace(eps, float32(-math.Sqrt(1-ab)))
		x0.ScaleInPlace(float32(1 / math.Sqrt(ab)))

		// (2) Data consistency: precision-weighted fusion of the prior's
		// estimate x̂0 (error ∝ remaining diffusion noise σ_t) with the
		// observation y (corruption σ_y). Early steps, where x̂0 is still
		// unreliable, anchor to y; as σ_t shrinks below σ_y the prior
		// estimate dominates and the adversarial component of y is
		// progressively discarded.
		sigmaT2 := (1 - ab) / ab
		wy := sigmaT2 / (sigmaT2 + cfg.SigmaY*cfg.SigmaY)
		x0.ScaleInPlace(float32(1 - wy))
		x0.AddScaledInPlace(yT, float32(wy))

		if tNext <= 0 {
			final = x0
			break
		}

		// (3) Re-noise to τ_{i+1}: mix the predicted noise direction with
		// fresh noise according to ζ. eps still lives in the UNet workspace
		// (no model call happens in between), so it is read before the next
		// PredictNoise overwrites it.
		abn := d.alphaBar[tNext]
		copy(x.Data(), x0.Data())
		x.ScaleInPlace(float32(math.Sqrt(abn)))
		rng.FillNormal(noise.Data(), 0, 1)
		coef := math.Sqrt(1 - abn)
		x.AddScaledInPlace(eps, float32(coef*math.Sqrt(1-cfg.Zeta)))
		x.AddScaledInPlace(noise, float32(coef*math.Sqrt(cfg.Zeta)))
		final = x
	}

	copy(dst.Pix, final.Data())
	return dst.Clamp()
}

// DiffPIRDefense adapts Restore to the Preprocessor interface so the
// evaluation harness can slot the diffusion defense next to the classical
// preprocessors.
type DiffPIRDefense struct {
	Model *Diffusion
	Cfg   DiffPIRConfig
}

var _ IntoPreprocessor = (*DiffPIRDefense)(nil)

// Name implements Preprocessor.
func (d *DiffPIRDefense) Name() string { return "Diffusion (DiffPIR)" }

// Process implements Preprocessor.
func (d *DiffPIRDefense) Process(img *imaging.Image) *imaging.Image {
	return d.Model.Restore(img, d.Cfg)
}

// ProcessInto implements IntoPreprocessor: the closed-loop pipeline hands
// DiffPIR one destination frame, and with the restoration scratch warm the
// per-frame defense allocates nothing.
func (d *DiffPIRDefense) ProcessInto(dst, img *imaging.Image) *imaging.Image {
	return d.Model.RestoreInto(dst, img, d.Cfg)
}
