package attack

import (
	"math"
	"sync"
	"testing"

	"repro/internal/box"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/xrand"
)

// Shared lightly-trained victims: training once per test binary keeps the
// attack tests focused on attack behaviour, not optimisation.
var (
	victimOnce sync.Once
	victimReg  *regress.Regressor
	victimDet  *detect.Detector
	driveSet   *dataset.DriveSet
	signSet    *dataset.SignSet
)

func victims(t testing.TB) (*regress.Regressor, *detect.Detector) {
	t.Helper()
	victimOnce.Do(func() {
		rng := xrand.New(99)
		dcfg := scene.DefaultDriveConfig()
		driveSet = dataset.GenerateDriveSet(rng.Split(), dcfg, 90, 5, 60)
		victimReg = regress.New(rng.Split(), dcfg.Size)
		rc := regress.DefaultTrainConfig()
		rc.Epochs = 6
		victimReg.Train(driveSet, rc)

		scfg := scene.DefaultSignConfig()
		signSet = dataset.GenerateSignSet(rng.Split(), scfg, 90)
		victimDet = detect.New(rng.Split(), scfg.Size)
		tc := detect.DefaultTrainConfig()
		tc.Epochs = 8
		victimDet.Train(signSet, tc)
	})
	return victimReg, victimDet
}

func firstSignScene(t *testing.T) scene.SignScene {
	t.Helper()
	victims(t)
	for _, sc := range signSet.Scenes {
		if sc.HasSign {
			return sc
		}
	}
	t.Fatal("no positive sign scene")
	return scene.SignScene{}
}

func TestBoxMask(t *testing.T) {
	m := BoxMask(3, 8, 8, box.New(2, 2, 5, 5), 0)
	if m.At(0, 3, 3) != 1 || m.At(2, 4, 4) != 1 {
		t.Fatal("inside pixels must be 1")
	}
	if m.At(0, 0, 0) != 0 || m.At(1, 7, 7) != 0 {
		t.Fatal("outside pixels must be 0")
	}
	// Expansion grows the support.
	me := BoxMask(3, 8, 8, box.New(2, 2, 5, 5), 2)
	if me.Sum() <= m.Sum() {
		t.Fatal("expanded mask must cover more pixels")
	}
}

func TestGaussianRespectsMaskAndClamps(t *testing.T) {
	reg, _ := victims(t)
	_ = reg
	sc := driveSet.Scenes[0]
	mask := BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 0)
	out := Gaussian(xrand.New(1), sc.Img, 0.5, mask)
	md := mask.Data()
	for i := range out.Pix {
		if md[i] == 0 && out.Pix[i] != sc.Img.Pix[i] {
			t.Fatal("noise leaked outside the mask")
		}
		if out.Pix[i] < 0 || out.Pix[i] > 1 {
			t.Fatal("output not clamped")
		}
	}
}

func TestFGSMIncreasesObjectiveLoss(t *testing.T) {
	reg, _ := victims(t)
	sc := driveSet.Scenes[0]
	obj := &RegressionObjective{Reg: reg}
	before, _ := obj.LossGrad(sc.Img)
	adv := FGSM(obj, sc.Img, 0.02, nil)
	after, _ := obj.LossGrad(adv)
	if after <= before {
		t.Fatalf("FGSM did not increase loss: %v -> %v", before, after)
	}
	// L∞ budget respected.
	for i := range adv.Pix {
		if d := math.Abs(float64(adv.Pix[i] - sc.Img.Pix[i])); d > 0.02+1e-6 {
			t.Fatalf("FGSM exceeded epsilon: %v", d)
		}
	}
}

func TestAutoPGDStrongerThanFGSM(t *testing.T) {
	reg, _ := victims(t)
	obj := &RegressionObjective{Reg: reg}
	var fgsmGain, apgdGain float64
	for _, sc := range driveSet.Scenes[:8] {
		mask := BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
		clean := reg.Predict(sc.Img)
		fgsmGain += reg.Predict(FGSM(obj, sc.Img, 0.03, mask)) - clean
		cfg := DefaultAPGDConfig(0.03)
		cfg.Steps = 12
		apgdGain += reg.Predict(AutoPGD(obj, sc.Img, cfg, mask)) - clean
	}
	if apgdGain <= fgsmGain {
		t.Fatalf("Auto-PGD (%.2f) should beat FGSM (%.2f) at equal ε", apgdGain, fgsmGain)
	}
}

func TestAutoPGDRespectsBudgetAndMask(t *testing.T) {
	reg, _ := victims(t)
	sc := driveSet.Scenes[1]
	obj := &RegressionObjective{Reg: reg}
	mask := BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 0)
	cfg := DefaultAPGDConfig(0.05)
	cfg.Steps = 10
	adv := AutoPGD(obj, sc.Img, cfg, mask)
	md := mask.Data()
	for i := range adv.Pix {
		d := math.Abs(float64(adv.Pix[i] - sc.Img.Pix[i]))
		if md[i] == 0 && d > 1e-6 {
			t.Fatal("Auto-PGD leaked outside the mask")
		}
		if d > 0.05+1e-5 {
			t.Fatalf("Auto-PGD exceeded epsilon: %v", d)
		}
	}
}

func TestPGDRespectsBudget(t *testing.T) {
	reg, _ := victims(t)
	sc := driveSet.Scenes[2]
	obj := &RegressionObjective{Reg: reg}
	adv := PGD(obj, sc.Img, 0.02, 8, nil)
	for i := range adv.Pix {
		if d := math.Abs(float64(adv.Pix[i] - sc.Img.Pix[i])); d > 0.02+1e-5 {
			t.Fatalf("PGD exceeded epsilon: %v", d)
		}
	}
}

func TestSimBAReducesScore(t *testing.T) {
	_, det := victims(t)
	sc := firstSignScene(t)
	obj := &DetectionObjective{Det: det, GT: detect.GTBoxes(sc)}
	before := obj.Score(sc.Img)
	cfg := DefaultSimBAConfig()
	cfg.Steps = 200
	cfg.Eps = 0.2
	adv := SimBA(obj, sc.Img, cfg, nil)
	after := obj.Score(adv)
	if after > before {
		t.Fatalf("SimBA raised the score: %v -> %v", before, after)
	}
}

func TestSimBAMaskConfinement(t *testing.T) {
	_, det := victims(t)
	sc := firstSignScene(t)
	obj := &DetectionObjective{Det: det, GT: detect.GTBoxes(sc)}
	mask := BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.Box, 0)
	cfg := DefaultSimBAConfig()
	cfg.Steps = 100
	adv := SimBA(obj, sc.Img, cfg, mask)
	md := mask.Data()
	for i := range adv.Pix {
		if md[i] == 0 && adv.Pix[i] != sc.Img.Pix[i] {
			t.Fatal("SimBA modified pixels outside the mask")
		}
	}
}

func TestSimBAL2Bound(t *testing.T) {
	_, det := victims(t)
	sc := firstSignScene(t)
	obj := &DetectionObjective{Det: det, GT: detect.GTBoxes(sc)}
	cfg := DefaultSimBAConfig()
	cfg.Steps = 150
	cfg.Eps = 0.1
	adv := SimBA(obj, sc.Img, cfg, nil)
	var l2 float64
	for i := range adv.Pix {
		d := float64(adv.Pix[i] - sc.Img.Pix[i])
		l2 += d * d
	}
	// Eq. 4: ‖δ‖₂² ≤ T·ε² (clamping can only shrink it).
	if l2 > float64(cfg.Steps)*cfg.Eps*cfg.Eps+1e-6 {
		t.Fatalf("SimBA L2 bound violated: %v", l2)
	}
}

func TestRP2ConfinedToSign(t *testing.T) {
	_, det := victims(t)
	sc := firstSignScene(t)
	obj := &DetectionObjective{Det: det, GT: detect.GTBoxes(sc)}
	cfg := DefaultRP2Config()
	cfg.Iters = 8
	adv := RP2(obj, sc.Img, sc.Box, cfg)
	// The patch mask rasterises the (1px-shrunk) sign box with ceiling
	// bounds, so allow a 1px halo when checking confinement.
	outer := sc.Box.Expand(1)
	for y := 0; y < adv.H; y++ {
		for x := 0; x < adv.W; x++ {
			if inBox(outer, x, y) {
				continue
			}
			for c := 0; c < 3; c++ {
				if adv.At(c, y, x) != sc.Img.At(c, y, x) {
					t.Fatalf("RP2 modified pixel outside the sign at (%d,%d)", y, x)
				}
			}
		}
	}
}

func TestRP2IncreasesLoss(t *testing.T) {
	_, det := victims(t)
	sc := firstSignScene(t)
	obj := &DetectionObjective{Det: det, GT: detect.GTBoxes(sc)}
	before, _ := obj.LossGrad(sc.Img)
	cfg := DefaultRP2Config()
	cfg.Iters = 20
	adv := RP2(obj, sc.Img, sc.Box, cfg)
	after, _ := obj.LossGrad(adv)
	if after <= before {
		t.Fatalf("RP2 did not increase detection loss: %v -> %v", before, after)
	}
}

func TestCAPConfinedToLeadBox(t *testing.T) {
	reg, _ := victims(t)
	sc := driveSet.Scenes[3]
	obj := &RegressionObjective{Reg: reg}
	c := NewCAP(DefaultCAPConfig())
	adv := c.Apply(obj, sc.Img, sc.LeadBox)
	outer := sc.LeadBox.Expand(1.5)
	for y := 0; y < adv.H; y++ {
		for x := 0; x < adv.W; x++ {
			if inBox(outer, x, y) {
				continue
			}
			for ch := 0; ch < 3; ch++ {
				if adv.At(ch, y, x) != sc.Img.At(ch, y, x) {
					t.Fatalf("CAP modified pixel outside lead box at (%d,%d)", y, x)
				}
			}
		}
	}
}

func TestCAPWarmStartCarriesPatch(t *testing.T) {
	reg, _ := victims(t)
	obj := &RegressionObjective{Reg: reg}
	cfg := DefaultCAPConfig()
	cfg.StepsPerFrame = 1 // starve the per-frame budget so inheritance matters

	// The lead closes at 5 m/s from 25 m, one frame every 0.1 s.
	r := scene.NewRenderer(xrand.New(7), scene.DefaultDriveConfig())
	frames := make([]scene.DriveScene, 8)
	for i := range frames {
		frames[i] = r.Render(25 - 0.5*float64(i))
	}

	run := func(cold bool) float64 {
		c := NewCAP(cfg)
		var total float64
		for _, f := range frames {
			if cold {
				c.Reset()
			}
			adv := c.Apply(obj, f.Img, f.LeadBox)
			total += reg.Predict(adv) - reg.Predict(f.Img)
		}
		return total
	}
	warm := run(false)
	cold := run(true)
	if warm <= cold {
		t.Fatalf("warm-start (%.2f) should outperform cold-start (%.2f)", warm, cold)
	}
}

func TestCAPHandlesDegenerateBox(t *testing.T) {
	reg, _ := victims(t)
	sc := driveSet.Scenes[4]
	obj := &RegressionObjective{Reg: reg}
	c := NewCAP(DefaultCAPConfig())
	adv := c.Apply(obj, sc.Img, box.Box{}) // empty box: no attack surface
	if adv.MeanAbsDiff(sc.Img) != 0 {
		t.Fatal("empty lead box must leave the frame untouched")
	}
}

func TestCAPRespectsEpsilon(t *testing.T) {
	reg, _ := victims(t)
	sc := driveSet.Scenes[5]
	obj := &RegressionObjective{Reg: reg}
	cfg := DefaultCAPConfig()
	cfg.Eps = 0.1
	c := NewCAP(cfg)
	adv := c.Apply(obj, sc.Img, sc.LeadBox)
	for i := range adv.Pix {
		if d := math.Abs(float64(adv.Pix[i] - sc.Img.Pix[i])); d > 0.1+1e-5 {
			t.Fatalf("CAP exceeded epsilon: %v", d)
		}
	}
}

func TestAttributionThreshold(t *testing.T) {
	g := BoxMask(1, 4, 4, box.New(0, 0, 4, 4), 0) // all ones
	// frac=1 keeps everything.
	if th := attributionThreshold(g, 1); th != 0 {
		t.Fatalf("frac=1 threshold %v, want 0", th)
	}
	// All-equal magnitudes: any fraction keeps them all (single bin).
	if th := attributionThreshold(g, 0.5); th > 1 {
		t.Fatalf("threshold %v exceeds max magnitude", th)
	}
}

// inBox reports whether pixel (x, y) lies inside b.
func inBox(b box.Box, x, y int) bool {
	fx, fy := float64(x), float64(y)
	return fx >= b.X0 && fx < b.X1 && fy >= b.Y0 && fy < b.Y1
}
