package pipeline

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/box"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/imaging"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/sim"
	"repro/internal/xrand"
)

var (
	regOnce sync.Once
	reg     *regress.Regressor
)

func trainedReg(t testing.TB) *regress.Regressor {
	t.Helper()
	regOnce.Do(func() {
		rng := xrand.New(55)
		cfg := scene.DefaultDriveConfig()
		set := dataset.GenerateDriveSet(rng.Split(), cfg, 150, cfg.MinZ, cfg.MaxZ)
		reg = regress.New(rng.Split(), cfg.Size)
		rc := regress.DefaultTrainConfig()
		rc.Epochs = 10
		reg.Train(set, rc)
	})
	return reg
}

func TestCleanLoopIsSafe(t *testing.T) {
	cfg := DefaultConfig(trainedReg(t))
	res := Run(cfg)
	if res.Collision {
		t.Fatal("clean pipeline must not collide in the default scenario")
	}
	if len(res.Times) == 0 || len(res.TrueGaps) != len(res.PerceivedGaps) {
		t.Fatal("telemetry incomplete")
	}
	if res.MinGap <= 0 {
		t.Fatalf("min gap %v", res.MinGap)
	}
}

func TestPerceptionTracksTruth(t *testing.T) {
	cfg := DefaultConfig(trainedReg(t))
	res := Run(cfg)
	var worst float64
	for i := range res.TrueGaps {
		d := res.PerceivedGaps[i] - res.TrueGaps[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 30 {
		t.Fatalf("perception diverged from truth by %.1f m", worst)
	}
}

func TestAttackerDegradesSafety(t *testing.T) {
	r := trainedReg(t)
	clean := Run(DefaultConfig(r))

	attacked := DefaultConfig(r)
	obj := &attack.RegressionObjective{Reg: r.Clone()}
	attacked.Attacker = AttackerFunc(func(img *imaging.Image, leadBox box.Box) *imaging.Image {
		if leadBox.Empty() {
			return img
		}
		mask := attack.BoxMask(img.C, img.H, img.W, leadBox, 1)
		return attack.FGSM(obj, img, 0.08, mask)
	})
	adv := Run(attacked)

	// Inflating the perceived gap must not leave safety unaffected: either
	// the minimum gap shrinks or a collision occurs.
	if !adv.Collision && adv.MinGap >= clean.MinGap-0.5 {
		t.Fatalf("attack had no safety effect: clean min gap %.2f, attacked %.2f", clean.MinGap, adv.MinGap)
	}
}

func TestDefenseHookRuns(t *testing.T) {
	r := trainedReg(t)
	cfg := DefaultConfig(r)
	cfg.Defense = defense.NewMedianBlur()
	res := Run(cfg)
	if len(res.Times) == 0 {
		t.Fatal("defended run produced no telemetry")
	}
}

func TestAttackerFuncAdapter(t *testing.T) {
	called := false
	f := AttackerFunc(func(img *imaging.Image, leadBox box.Box) *imaging.Image {
		called = true
		return img
	})
	img := imaging.NewRGB(4, 4)
	if f.Apply(img, box.Box{}) != img || !called {
		t.Fatal("AttackerFunc adapter broken")
	}
}

// referenceMedian is the 3×3 median defense computed the naive way: every
// clamped window insertion-sorted (a stable sort) in row-major order.
type referenceMedian struct{}

func (referenceMedian) Name() string { return "reference median" }

func (referenceMedian) Process(img *imaging.Image) *imaging.Image {
	out := imaging.NewImage(img.C, img.H, img.W)
	window := make([]float32, 0, 9)
	for c := 0; c < img.C; c++ {
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				window = window[:0]
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						v := img.At(c, min(max(y+dy, 0), img.H-1), min(max(x+dx, 0), img.W-1))
						i := len(window)
						window = append(window, v)
						for i > 0 && window[i-1] > v {
							window[i] = window[i-1]
							i--
						}
						window[i] = v
					}
				}
				out.Set(c, y, x, window[4])
			}
		}
	}
	return out
}

// TestDefendedRunsMatchReferences closes the loop on every registered
// scenario (fog-brake's blur veil included) and checks two bit-identities
// of the whole sim.Result: the production median defense against the
// naive reference median, and the identity defense (None) against the
// undefended run.
func TestDefendedRunsMatchReferences(t *testing.T) {
	for _, sc := range Scenarios() {
		run := func(d defense.Preprocessor) sim.Result {
			cfg := shortScenarioCfg(t, sc.Name)
			cfg.Defense = d
			return Run(cfg)
		}
		if got, want := run(defense.NewMedianBlur()), run(referenceMedian{}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: median defense diverges from the reference median", sc.Name)
		}
		if got, want := run(defense.None{}), run(nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: identity defense diverges from the undefended run", sc.Name)
		}
	}
}

// TestNaNPredictionReadsAsZeroGap feeds the regressor a NaN pixel every
// frame, so every prediction is NaN. The loop must read it as a zero gap,
// as it does a negative one: a NaN that reached the gap filter would turn
// the ego speed and the true gap into NaN, and the collision check
// trueGap <= 0 would never fire again.
func TestNaNPredictionReadsAsZeroGap(t *testing.T) {
	cfg := DefaultConfig(trainedReg(t))
	cfg.FrameFilter = func(img *imaging.Image, _ *xrand.RNG) { img.Pix[0] = float32(math.NaN()) }
	res := Run(cfg)
	if len(res.PerceivedGaps) == 0 {
		t.Fatal("no frames ran")
	}
	for i, g := range res.PerceivedGaps {
		if g != 0 {
			t.Fatalf("frame %d: perceived gap %v, want 0", i, g)
		}
	}
	if math.IsNaN(res.MinGap) || math.IsInf(res.MinGap, 0) {
		t.Fatalf("min gap %v, want finite", res.MinGap)
	}
	for i, v := range res.EgoSpeeds {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("frame %d: ego speed %v, want finite", i, v)
		}
	}
}
