package eval

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/box"
	"repro/internal/imaging"
	"repro/internal/metrics"
)

// microPreset is deliberately tiny: the eval tests certify plumbing
// (shapes, labels, determinism), not experiment quality.
func microPreset() Preset {
	return Preset{
		Name:      "micro",
		SignTrain: 40, SignTest: 12,
		DriveTrain: 50, DrivePerBucket: 3,
		DetEpochs: 4, RegEpochs: 4,
		AdvEpochs: 1, ContrastiveEpochs: 1,
		DiffusionSteps: 10, DiffPIRSteps: 3,
		APGDSteps: 4, SimBASteps: 20, RP2Iters: 4,
		Seed: 5,
	}
}

var (
	envOnce sync.Once
	testEnv *Env
)

func sharedEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() {
		testEnv = NewEnv(microPreset())
	})
	return testEnv
}

func TestNewEnvBuildsDatasets(t *testing.T) {
	e := sharedEnv(t)
	if e.SignTrainSet.Len() != 40 || e.SignTestSet.Len() != 12 {
		t.Fatalf("sign sets %d/%d", e.SignTrainSet.Len(), e.SignTestSet.Len())
	}
	if e.DriveTest.Len() != 4*3 {
		t.Fatalf("stratified drive test %d, want 12", e.DriveTest.Len())
	}
	if e.Det == nil || e.Reg == nil {
		t.Fatal("victims not trained")
	}
}

func TestAttackSignSetShapesAndNone(t *testing.T) {
	e := sharedEnv(t)
	for _, kind := range []Kind{KindNone, KindGaussian, KindFGSM} {
		imgs := e.AttackSignSet(e.Det, e.SignTestSet, kind, 1)
		if len(imgs) != e.SignTestSet.Len() {
			t.Fatalf("%s returned %d images", kind, len(imgs))
		}
		for i, img := range imgs {
			if img.H != 64 || img.W != 64 {
				t.Fatalf("%s image %d wrong shape", kind, i)
			}
		}
	}
	// KindNone must be pixel-identical to the originals.
	clones := e.AttackSignSet(e.Det, e.SignTestSet, KindNone, 1)
	for i, img := range clones {
		if img.MeanAbsDiff(e.SignTestSet.Scenes[i].Img) != 0 {
			t.Fatal("KindNone must clone the clean image")
		}
	}
}

func TestAttackDriveSetMaskConfinement(t *testing.T) {
	e := sharedEnv(t)
	imgs := e.AttackDriveSet(e.Reg, e.DriveTest, KindFGSM, 2)
	for i, adv := range imgs {
		sc := e.DriveTest.Scenes[i]
		outer := sc.LeadBox.Expand(2.5)
		for y := 0; y < adv.H; y++ {
			for x := 0; x < adv.W; x++ {
				if inBox(outer, x, y) {
					continue
				}
				for c := 0; c < 3; c++ {
					if adv.At(c, y, x) != sc.Img.At(c, y, x) {
						t.Fatalf("frame %d: perturbation outside lead box", i)
					}
				}
			}
		}
	}
}

func TestAttackDeterminism(t *testing.T) {
	e := sharedEnv(t)
	a := e.AttackSignSet(e.Det, e.SignTestSet, KindFGSM, 7)
	b := e.AttackSignSet(e.Det, e.SignTestSet, KindFGSM, 7)
	for i := range a {
		if a[i].MeanAbsDiff(b[i]) != 0 {
			t.Fatal("same seed must reproduce identical attacks")
		}
	}
}

func TestRunTableIShape(t *testing.T) {
	e := sharedEnv(t)
	tab := e.RunTableI()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	order := []Kind{KindGaussian, KindFGSM, KindAPGD, KindCAP}
	for i, r := range tab.Rows {
		if r.Attack != order[i] {
			t.Fatalf("row %d attack %s, want %s", i, r.Attack, order[i])
		}
	}
	s := tab.Format()
	if !strings.Contains(s, "TABLE I") || !strings.Contains(s, "CAP/RP2") {
		t.Fatalf("format missing headers:\n%s", s)
	}
}

func TestRunFig2Shape(t *testing.T) {
	e := sharedEnv(t)
	f := e.RunFig2()
	if len(f.Rows) != 6 {
		t.Fatalf("rows %d", len(f.Rows))
	}
	if f.Rows[0].Attack != KindNone {
		t.Fatal("first row must be the clean baseline")
	}
	for _, r := range f.Rows {
		if r.Scores.MAP50 < 0 || r.Scores.MAP50 > 1 {
			t.Fatalf("mAP out of range: %+v", r)
		}
	}
}

// TestTableIIWorkerInvariant: Table II's rows are the same at one worker
// and at four. Randomization draws from an RNG, so every worker block
// gets its own instance; one instance shared across blocks is a data race
// (-race reports it) and makes the numbers depend on the schedule.
func TestTableIIWorkerInvariant(t *testing.T) {
	e := sharedEnv(t)
	defer func(w int) { e.Workers = w }(e.Workers)
	e.Workers = 1
	one := e.RunTableII()
	e.Workers = 4
	four := e.RunTableII()
	if len(one.Rows) != 16 || len(four.Rows) != 16 {
		t.Fatalf("rows %d and %d, want 16", len(one.Rows), len(four.Rows))
	}
	for i := range one.Rows {
		if a, b := fmt.Sprint(one.Rows[i]), fmt.Sprint(four.Rows[i]); a != b {
			t.Fatalf("row %d differs between 1 and 4 workers:\n%s\n%s", i, a, b)
		}
	}
}

func TestPipelineScenarios(t *testing.T) {
	e := sharedEnv(t)
	rows := PipelineScenarios(e)
	if len(rows) != 3 {
		t.Fatalf("scenarios %d", len(rows))
	}
	names := []string{"Clean", "CAP-Attack", "CAP + Median Blurring"}
	for i, r := range rows {
		if r.Name != names[i] {
			t.Fatalf("scenario %d name %q", i, r.Name)
		}
	}
}

func TestFormatTableII(t *testing.T) {
	tab := TableII{Rows: []TableIIRow{
		{Attack: KindGaussian, Defense: "None", Errs: RangeErrs{1, 2, 3, 4},
			Scores: metrics.DetectionScores{MAP50: 0.9, Precision: 0.95, Recall: 0.85}},
		{Attack: KindGaussian, Defense: "Median Blurring"},
	}}
	s := tab.Format()
	if !strings.Contains(s, "TABLE II") || !strings.Contains(s, "Median Blurring") {
		t.Fatalf("bad format:\n%s", s)
	}
	// The attack label appears once per group.
	if strings.Count(s, "Gaussian") != 1 {
		t.Fatalf("attack label should appear once per group:\n%s", s)
	}
}

func TestFormatTableIIIMixedDash(t *testing.T) {
	tab := TableIII{Cells: []TableIIICell{
		{TrainOn: KindFGSM, TestOn: MixedKind, HasReg: false},
	}}
	s := tab.Format()
	if !strings.Contains(s, "-") {
		t.Fatalf("mixed test row must render dashes for regression:\n%s", s)
	}
}

func TestFormatTableIVCleanLabel(t *testing.T) {
	tab := TableIV{Cells: []TableIVCell{{TrainOn: KindGaussian, TestOn: KindNone}}}
	if !strings.Contains(tab.Format(), "Clean") {
		t.Fatal("KindNone must render as Clean")
	}
}

func TestPairedDetKind(t *testing.T) {
	if pairedDetKind(KindCAP) != KindRP2 {
		t.Fatal("CAP must pair with RP2 on the detection task")
	}
	if pairedDetKind(KindFGSM) != KindFGSM {
		t.Fatal("non-CAP kinds must pass through")
	}
}

func TestDisplayKind(t *testing.T) {
	if displayKind(KindCAP) != "CAP/RP2" || displayKind(MixedKind) != "Mixed" || displayKind(KindFGSM) != "FGSM" {
		t.Fatal("displayKind labels wrong")
	}
}

func TestParallelMapCoversAll(t *testing.T) {
	hits := make([]int, 100)
	parallelMap(4, 100, func(w, i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestQuickAndPaperPresets(t *testing.T) {
	q, p := Quick(), Paper()
	if q.Name != "quick" || p.Name != "paper" {
		t.Fatal("preset names wrong")
	}
	if p.SignTrain <= q.SignTrain || p.DetEpochs <= q.DetEpochs {
		t.Fatal("paper preset must be larger than quick")
	}
	b := DefaultBudgets()
	if b.RegAPGDEps <= b.RegFGSMEps {
		t.Fatal("APGD budget should exceed FGSM (iterative attack, same family)")
	}
}

// TestRangeErrsFromCleanIsZero runs the Table I path with the clean frames
// as the "attacked" ones: every bucket's shift must be exactly zero.
func TestRangeErrsFromCleanIsZero(t *testing.T) {
	e := sharedEnv(t)
	clean := make([]*imaging.Image, e.DriveTest.Len())
	for i, sc := range e.DriveTest.Scenes {
		clean[i] = sc.Img
	}
	for i, m := range rangeErrsFrom(e.Reg, e, clean, nil) {
		if m != 0 {
			t.Fatalf("bucket %d clean error %v, want 0", i, m)
		}
	}
}

// TestRangeErrsFromDetectsShift feeds a white frame for every scene: the
// predictions move, so some bucket must register a nonzero shift.
func TestRangeErrsFromDetectsShift(t *testing.T) {
	e := sharedEnv(t)
	white := imaging.NewRGB(e.DriveTest.Scenes[0].Img.H, e.DriveTest.Scenes[0].Img.W)
	white.Fill(imaging.White)
	adv := make([]*imaging.Image, e.DriveTest.Len())
	for i := range adv {
		adv[i] = white
	}
	var nonzero bool
	for _, m := range rangeErrsFrom(e.Reg, e, adv, nil) {
		if m != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("range errors failed to register a prediction shift")
	}
}

// inBox reports whether pixel (x, y) lies inside b.
func inBox(b box.Box, x, y int) bool {
	fx, fy := float64(x), float64(y)
	return fx >= b.X0 && fx < b.X1 && fy >= b.Y0 && fy < b.Y1
}
