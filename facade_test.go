package advperception

// Integration tests of the public facade: the end-to-end flows a library
// user exercises, at miniature scale.

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
)

func TestFacadeDetectionFlow(t *testing.T) {
	rng := NewRNG(1)
	cfg := DefaultSignConfig()
	set := GenerateSignSet(rng.Split(), cfg, 80)
	train, test := set.Split(0.8)

	det := NewDetector(rng.Split(), cfg.Size)
	tc := DefaultDetectorTrainConfig()
	tc.Epochs = 8
	det.Train(train, tc)

	clean := det.Evaluate(test, 0.5)
	if clean.MAP50 <= 0 {
		t.Fatalf("clean mAP %v", clean.MAP50)
	}

	// Attack every test image; metrics must degrade or stay equal.
	imgs := make([]*Image, test.Len())
	gts := make([][]Box, test.Len())
	for i, sc := range test.Scenes {
		gts[i] = GTBoxes(sc)
		obj := &DetectionObjective{Det: det, GT: gts[i]}
		imgs[i] = FGSM(obj, sc.Img, 0.02, nil)
	}
	adv := det.EvaluateImages(imgs, gts, 0.5)
	if adv.MAP50 > clean.MAP50 {
		t.Fatalf("FGSM improved detection: %.3f -> %.3f", clean.MAP50, adv.MAP50)
	}
}

func TestFacadeRegressionFlow(t *testing.T) {
	rng := NewRNG(2)
	cfg := DefaultDriveConfig()
	set := GenerateDriveSet(rng.Split(), cfg, 120, cfg.MinZ, cfg.MaxZ)
	train, test := set.Split(0.8)

	reg := NewRegressor(rng.Split(), cfg.Size)
	rc := DefaultRegressorTrainConfig()
	rc.Epochs = 8
	reg.Train(train, rc)

	sc := test.Scenes[0]
	obj := &RegressionObjective{Reg: reg}
	mask := BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
	adv := AutoPGD(obj, sc.Img, DefaultAPGDConfig(0.04), mask)
	if reg.Predict(adv) <= reg.Predict(sc.Img) {
		t.Fatal("Auto-PGD failed to inflate the predicted distance")
	}
}

func TestFacadeDefenses(t *testing.T) {
	img := GenerateDriveSet(NewRNG(3), DefaultDriveConfig(), 1, 10, 20).Scenes[0].Img
	for _, p := range []Preprocessor{NewMedianBlur(), NewBitDepth(), NewRandomization(1)} {
		out := p.Process(img)
		if out.H != img.H || out.W != img.W {
			t.Fatalf("%s changed shape", p.Name())
		}
	}
}

func TestFacadePipeline(t *testing.T) {
	rng := NewRNG(4)
	cfg := DefaultDriveConfig()
	set := GenerateDriveSet(rng.Split(), cfg, 80, cfg.MinZ, cfg.MaxZ)
	reg := NewRegressor(rng.Split(), cfg.Size)
	rc := DefaultRegressorTrainConfig()
	rc.Epochs = 6
	reg.Train(set, rc)

	pc := DefaultPipelineConfig(reg)
	pc.Duration = 4 // keep the test short
	res := RunPipeline(pc)
	if len(res.Times) == 0 {
		t.Fatal("pipeline produced no telemetry")
	}
}

func TestFacadeCAP(t *testing.T) {
	rng := NewRNG(5)
	cfg := DefaultDriveConfig()
	set := GenerateDriveSet(rng.Split(), cfg, 60, 8, 40)
	reg := NewRegressor(rng.Split(), cfg.Size)
	rc := DefaultRegressorTrainConfig()
	rc.Epochs = 6
	reg.Train(set, rc)

	c := NewCAP(DefaultCAPConfig())
	obj := &RegressionObjective{Reg: reg}
	var total float64
	for _, sc := range set.Scenes[:5] {
		adv := c.Apply(obj, sc.Img, sc.LeadBox)
		total += reg.Predict(adv) - reg.Predict(sc.Img)
	}
	if total <= 0 {
		t.Fatalf("CAP failed to inflate distance predictions, total shift %v", total)
	}
}

func TestPresetsExposed(t *testing.T) {
	if Quick().Name != "quick" || Paper().Name != "paper" {
		t.Fatal("preset facade broken")
	}
}

// TestFacadeExperimentV2 exercises the v2 surface end to end through the
// facade: functional options, a registered scenario, a spec run, the
// registries and spec JSON.
func TestFacadeExperimentV2(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a micro environment; the non-short job covers it")
	}
	ctx := context.Background()

	// A scenario registered at run time is one more name on the axis:
	// both scenario views see it, and a spec may list it.
	probe := Scenario{Name: "facade-probe", Description: "the default cruise, registered by a test"}
	if err := RegisterScenario(probe); err != nil && !slices.Contains(ScenarioNames(), probe.Name) {
		t.Fatal(err) // a repeated run (-count) finds it registered already
	}
	if !slices.Contains(ScenarioNames(), probe.Name) {
		t.Fatalf("ScenarioNames() misses the registered %q: %v", probe.Name, ScenarioNames())
	}
	if s, ok := LookupScenario(probe.Name); !ok || s.Description != probe.Description {
		t.Fatalf("LookupScenario(%q) = %+v, %v", probe.Name, s, ok)
	}

	var logged bool
	x, err := NewExperiment(ctx,
		WithPreset(eval.Micro()),
		WithWorkers(2),
		WithLogger(func(format string, args ...any) { logged = true }))
	if err != nil {
		t.Fatal(err)
	}
	if !logged {
		t.Fatal("WithLogger must receive training progress")
	}

	spec := Spec{
		Kind: SpecMatrix,
		Matrix: &MatrixSpec{
			Scenarios: []string{probe.Name},
			Attacks:   []string{"None", "FGSM"},
			Defenses:  []string{"None"},
			Duration:  0.5, DT: 0.1, BaseSeed: 3,
		},
	}
	buf, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(buf)
	if err != nil {
		t.Fatal(err)
	}
	var cells atomic.Int32
	y, err := NewExperiment(ctx, WithEnv(x.Env()), WithObserver(ObserverFunc(func(ev Event) {
		if ev.Kind == EventCellDone {
			cells.Add(1)
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	res, err := y.Run(ctx, parsed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matrix.Cells) != 2 || cells.Load() != 2 {
		t.Fatalf("spec run produced %d cells, observer saw %d, want 2/2", len(res.Matrix.Cells), cells.Load())
	}

	if len(Attacks()) < 7 || len(Defenses()) < 5 || len(ScenarioNames()) < 9 {
		t.Fatalf("registries too small: %d attacks, %d defenses, %d scenarios",
			len(Attacks()), len(Defenses()), len(ScenarioNames()))
	}
	if _, ok := LookupAttack("Auto-PGD"); !ok {
		t.Fatal("Auto-PGD missing from the attack registry")
	}
}
