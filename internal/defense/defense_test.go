package defense

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

var (
	setupOnce sync.Once
	baseReg   *regress.Regressor
	baseDet   *detect.Detector
	drives    *dataset.DriveSet
	signs     *dataset.SignSet
)

func setup(t testing.TB) {
	t.Helper()
	setupOnce.Do(func() {
		rng := xrand.New(123)
		dcfg := scene.DefaultDriveConfig()
		drives = dataset.GenerateDriveSet(rng.Split(), dcfg, 90, 5, 60)
		baseReg = regress.New(rng.Split(), dcfg.Size)
		rc := regress.DefaultTrainConfig()
		rc.Epochs = 6
		baseReg.Train(drives, rc)

		scfg := scene.DefaultSignConfig()
		signs = dataset.GenerateSignSet(rng.Split(), scfg, 80)
		baseDet = detect.New(rng.Split(), scfg.Size)
		tc := detect.DefaultTrainConfig()
		tc.Epochs = 8
		baseDet.Train(signs, tc)
	})
}

func TestPreprocessorsPreserveShapeAndInput(t *testing.T) {
	img := imaging.NewRGB(16, 16)
	xrand.New(1).FillUniform(img.Pix, 0, 1)
	orig := img.Clone()

	preps := []Preprocessor{
		None{},
		NewMedianBlur(),
		NewBitDepth(),
		NewRandomization(3),
		Chain{Steps: []Preprocessor{NewMedianBlur(), NewBitDepth()}},
	}
	for _, p := range preps {
		t.Run(p.Name(), func(t *testing.T) {
			out := p.Process(img)
			if out.H != 16 || out.W != 16 || out.C != 3 {
				t.Fatalf("%s changed shape", p.Name())
			}
			if img.MeanAbsDiff(orig) != 0 {
				t.Fatalf("%s mutated its input", p.Name())
			}
			for _, v := range out.Pix {
				if v < 0 || v > 1 {
					t.Fatalf("%s produced out-of-range pixel %v", p.Name(), v)
				}
			}
		})
	}
}

func TestNoneIsIdentity(t *testing.T) {
	img := imaging.NewRGB(8, 8)
	xrand.New(2).FillUniform(img.Pix, 0, 1)
	if (None{}).Process(img).MeanAbsDiff(img) != 0 {
		t.Fatal("None must be the identity")
	}
}

func TestChainName(t *testing.T) {
	c := Chain{Steps: []Preprocessor{NewMedianBlur(), NewBitDepth()}}
	if c.Name() != "Median Blurring+Bit Depth" {
		t.Fatalf("Chain name = %q", c.Name())
	}
}

func TestMedianBlurMitigatesNoiseAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped in -short (the -race CI job)")
	}
	setup(t)
	rng := xrand.New(5)
	blur := NewMedianBlur()
	var attacked, defended float64
	n := 10
	for i := 0; i < n; i++ {
		sc := drives.Scenes[i]
		adv := attack.Gaussian(rng, sc.Img, 0.15, nil)
		// Controlled comparison: measure each path against its own clean
		// reference so the blur's domain shift cancels and only its
		// noise-mitigation effect is scored.
		attacked += math.Abs(baseReg.Predict(adv) - baseReg.Predict(sc.Img))
		defended += math.Abs(baseReg.Predict(blur.Process(adv)) - baseReg.Predict(blur.Process(sc.Img)))
	}
	if defended >= attacked {
		t.Fatalf("median blur did not reduce noise-induced error: %.2f vs %.2f", defended, attacked)
	}
}

func TestMixSetsFraction(t *testing.T) {
	rng := xrand.New(7)
	mk := func(n int) []*imaging.Image {
		out := make([]*imaging.Image, n)
		for i := range out {
			out[i] = imaging.NewRGB(4, 4)
		}
		return out
	}
	labels := make([][]detect.Box, 40)
	imgs, gts := MixSets(rng, 0.25, [][]*imaging.Image{mk(40), mk(40)}, [][][]detect.Box{labels, labels})
	if len(imgs) != 20 || len(gts) != 20 {
		t.Fatalf("mixed 25%% of 2x40 should be 20, got %d", len(imgs))
	}
}

func TestAdvTrainRegressorImprovesRobustness(t *testing.T) {
	setup(t)
	obj := &attack.RegressionObjective{Reg: baseReg}
	att := func(i int, img *imaging.Image) *imaging.Image {
		sc := drives.Scenes[i]
		mask := attack.BoxMask(img.C, img.H, img.W, sc.LeadBox, 1)
		return attack.FGSM(obj, img, 0.03, mask)
	}
	advImgs, dists := AdvDriveSet(drives, att)

	rc := regress.DefaultTrainConfig()
	rc.Epochs = 4
	rc.LR = 1e-3
	hardened := baseReg.Clone()
	hardened.TrainImages(advImgs, dists, rc)

	// Evaluate on the same adversarial examples (transfer setting).
	var baseErr, hardErr float64
	for i, sc := range drives.Scenes[:20] {
		baseErr += math.Abs(baseReg.Predict(advImgs[i]) - baseReg.Predict(sc.Img))
		hardErr += math.Abs(hardened.Predict(advImgs[i]) - hardened.Predict(sc.Img))
	}
	if hardErr >= baseErr {
		t.Fatalf("adversarial training did not help: hardened %.2f vs base %.2f", hardErr, baseErr)
	}
	// Base model untouched.
	if baseReg.Predict(drives.Scenes[0].Img) != baseReg.Clone().Predict(drives.Scenes[0].Img) {
		t.Fatal("base model was mutated")
	}
}

func TestContrastiveFineTuneKeepsDetection(t *testing.T) {
	setup(t)
	cfg := DefaultContrastiveConfig()
	cfg.Epochs = 1
	cfg.HeadEpochs = 2
	tuned := ContrastiveFineTune(baseDet, signs, cfg)

	base := baseDet.Evaluate(signs, 0.5)
	after := tuned.Evaluate(signs, 0.5)
	// Contrastive fine-tuning must not destroy the detector (paper: clean
	// performance stays high).
	if after.MAP50 < base.MAP50-0.25 {
		t.Fatalf("contrastive tuning collapsed detection: %.3f -> %.3f", base.MAP50, after.MAP50)
	}
}

func TestNTXentGradPullsPositivesTogether(t *testing.T) {
	// Two pairs of unit embeddings; the gradient on an anchor should point
	// away from its positive less than from negatives (i.e. following
	// -grad increases positive similarity).
	u := [][]float64{
		{1, 0}, {0.9, 0.436}, // pair A (views 0,1)
		{-1, 0}, {-0.9, -0.436}, // pair B (views 2,3)
	}
	grads := ntXentGrad(u, 0.2, 0)
	// Move anchor 0 a small step along -grad and renormalise.
	step := 0.1
	v := []float64{u[0][0] - step*grads[0][0], u[0][1] - step*grads[0][1]}
	n := math.Hypot(v[0], v[1])
	v[0] /= n
	v[1] /= n
	simBefore := u[0][0]*u[1][0] + u[0][1]*u[1][1]
	simAfter := v[0]*u[1][0] + v[1]*u[1][1]
	if simAfter <= simBefore {
		t.Fatalf("NT-Xent gradient failed to pull positives together: %v -> %v", simBefore, simAfter)
	}
}

func TestUNetShapesAndBackward(t *testing.T) {
	rng := xrand.New(11)
	u := NewUNet(rng, 5)
	x := tensor.New(5, 16, 16)
	rng.FillNormal(x.Data(), 0, 1)
	out := u.Forward(x, true)
	if out.Dim(0) != 3 || out.Dim(1) != 16 || out.Dim(2) != 16 {
		t.Fatalf("UNet output shape %v", out.Shape())
	}
	target := tensor.New(3, 16, 16)
	_, grad := nn.MSE(out, target)
	u.ZeroGrad()
	u.Backward(grad)
	var nonzero int
	for _, p := range u.Params() {
		for _, g := range p.Grad.Data() {
			if g != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("UNet backward produced no parameter gradients")
	}
}

func TestUNetGradientCheck(t *testing.T) {
	// Finite-difference check through the skip connections on a few
	// parameters of the first encoder conv.
	rng := xrand.New(13)
	u := NewUNet(rng, 5)
	x := tensor.New(5, 8, 8)
	rng.FillNormal(x.Data(), 0, 0.5)
	target := tensor.New(3, 8, 8)
	rng.FillNormal(target.Data(), 0, 0.5)

	loss := func() float64 {
		out := u.Forward(x, false)
		l, _ := nn.MSE(out, target)
		return l
	}
	u.ZeroGrad()
	out := u.Forward(x, false)
	_, g := nn.MSE(out, target)
	u.Backward(g)

	p := u.Params()[0]
	analytic := append([]float32(nil), p.Grad.Data()...)
	const eps = 1e-2
	for _, idx := range []int{0, 7, 19} {
		// Direct weight writes must bump the param version so any
		// weight-derived layer cache stays coherent.
		orig := p.Value.Data()[idx]
		p.Value.Data()[idx] = orig + eps
		p.MarkMutated()
		lp := loss()
		p.Value.Data()[idx] = orig - eps
		p.MarkMutated()
		lm := loss()
		p.Value.Data()[idx] = orig
		p.MarkMutated()
		numeric := (lp - lm) / (2 * eps)
		a := float64(analytic[idx])
		denom := math.Abs(a) + math.Abs(numeric)
		if denom < 1e-4 {
			continue
		}
		if math.Abs(a-numeric)/denom > 0.08 {
			t.Fatalf("UNet grad mismatch at %d: analytic %v vs numeric %v", idx, a, numeric)
		}
	}
}

func TestDiffusionTrainReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped in -short (the -race CI job)")
	}
	setup(t)
	cfg := DefaultDiffusionConfig()
	cfg.TrainSteps = 60
	cfg.Batch = 4
	var losses []float64
	cfg.Logf = func(format string, args ...any) {}
	d := NewDiffusion(xrand.New(17), cfg)

	// Track the DDPM loss on a fixed probe before and after training.
	probe := func() float64 {
		rng := xrand.New(99)
		var total float64
		for i := 0; i < 6; i++ {
			img := drives.Scenes[i].Img
			x0 := img.Tensor()
			tt := (i * 7) % cfg.T
			ab := d.alphaBar[tt]
			noise := tensor.New(x0.Shape()...)
			rng.FillNormal(noise.Data(), 0, 1)
			xt := x0.Scale(float32(math.Sqrt(ab)))
			xt.AddScaledInPlace(noise, float32(math.Sqrt(1-ab)))
			pred := d.PredictNoise(xt, tt)
			l, _ := nn.MSE(pred, noise)
			total += l
		}
		return total
	}
	before := probe()
	pick := xrand.New(19)
	d.Train(cfg, func() *imaging.Image {
		return drives.Scenes[pick.Intn(drives.Len())].Img
	})
	after := probe()
	_ = losses
	if after >= before {
		t.Fatalf("diffusion training did not reduce noise-prediction loss: %v -> %v", before, after)
	}
}

func TestDiffPIRRestoreShapeAndRange(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped in -short (the -race CI job)")
	}
	setup(t)
	cfg := DefaultDiffusionConfig()
	cfg.TrainSteps = 30
	d := NewDiffusion(xrand.New(23), cfg)
	pick := xrand.New(29)
	d.Train(cfg, func() *imaging.Image {
		return drives.Scenes[pick.Intn(drives.Len())].Img
	})

	rcfg := DefaultDiffPIRConfig()
	rcfg.Steps = 5
	img := drives.Scenes[0].Img
	out := d.Restore(img, rcfg)
	if out.H != img.H || out.W != img.W || out.C != 3 {
		t.Fatal("Restore changed shape")
	}
	for _, v := range out.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("Restore out-of-range pixel %v", v)
		}
	}
	// Data consistency: restoration must stay anchored to the observation.
	if out.MeanAbsDiff(img) > 0.35 {
		t.Fatalf("restoration drifted too far from observation: %v", out.MeanAbsDiff(img))
	}
}

// TestDiffPIRRejectsZeroSteps pins the Steps < 1 guard: without it the
// timestep schedule divides by zero.
func TestDiffPIRRejectsZeroSteps(t *testing.T) {
	d := NewDiffusion(xrand.New(37), DefaultDiffusionConfig())
	img := imaging.NewImage(3, 8, 8)
	for _, steps := range []int{0, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "defense: ") {
					t.Fatalf("Steps=%d: got panic %q, want a defense: message", steps, msg)
				}
			}()
			cfg := DefaultDiffPIRConfig()
			cfg.Steps = steps
			d.Restore(img, cfg)
		}()
	}
}

func TestDiffusionCloneIndependent(t *testing.T) {
	cfg := DefaultDiffusionConfig()
	d := NewDiffusion(xrand.New(31), cfg)
	c := d.Clone()
	x := tensor.New(3, 16, 16)
	a := d.PredictNoise(x, 5).Clone()
	c.Net.Params()[0].Value.Fill(0)
	b := d.PredictNoise(x, 5)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("clone mutation leaked into original diffusion model")
		}
	}
}
