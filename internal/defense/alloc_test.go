package defense

import (
	"testing"

	"repro/internal/testenv"

	"repro/internal/imaging"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestMedianBlurProcessIntoAllocs guards the §VI per-frame defense budget:
// median filtering into a caller-held frame must not allocate, so the
// latency benches measure filtering rather than the allocator.
func TestMedianBlurProcessIntoAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	d := NewMedianBlur()
	img := imaging.NewImage(3, 32, 32)
	for i := range img.Pix {
		img.Pix[i] = float32(i%23) * 0.04
	}
	dst := imaging.NewImage(3, 32, 32)
	if avg := testing.AllocsPerRun(20, func() { d.ProcessInto(dst, img) }); avg != 0 {
		t.Fatalf("MedianBlur.ProcessInto allocates %.2f/op, want 0", avg)
	}
}

// tinyDiffusion builds a small untrained prior over 16×16 frames — the
// restoration loop's cost model doesn't depend on training, only shapes.
func tinyDiffusion() *Diffusion {
	cfg := DefaultDiffusionConfig()
	cfg.T = 10
	return NewDiffusion(xrand.New(5), cfg)
}

// TestDiffPIRRestoreSteadyStateAllocs closes the ROADMAP leftover: with
// the model-held scratch warm (stack input, iterate/estimate/noise
// buffers, schedule, RNG and the UNet skip-concat buffers), a DiffPIR
// restoration into a caller-held frame must not allocate.
func TestDiffPIRRestoreSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	d := tinyDiffusion()
	cfg := DefaultDiffPIRConfig()
	cfg.Steps = 3
	img := imaging.NewRGB(16, 16)
	for i := range img.Pix {
		img.Pix[i] = float32(i%13) * 0.07
	}
	dst := imaging.NewRGB(16, 16)
	d.RestoreInto(dst, img, cfg) // size the scratch
	if avg := testing.AllocsPerRun(20, func() { d.RestoreInto(dst, img, cfg) }); avg >= 1 {
		t.Fatalf("RestoreInto allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestDiffPIRRestoreIntoMatchesRestore pins the scratch-backed RestoreInto
// to the allocating Restore bit for bit, including across repeated calls
// (the reused RNG must restart the stream exactly).
func TestDiffPIRRestoreIntoMatchesRestore(t *testing.T) {
	d := tinyDiffusion()
	cfg := DefaultDiffPIRConfig()
	cfg.Steps = 3
	img := imaging.NewRGB(16, 16)
	for i := range img.Pix {
		img.Pix[i] = float32(i%11) * 0.09
	}
	want := tinyDiffusion().Restore(img, cfg)
	for call := 0; call < 2; call++ {
		dst := imaging.NewRGB(16, 16)
		got := d.RestoreInto(dst, img, cfg)
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("call %d: RestoreInto diverges from Restore at %d", call, i)
			}
		}
	}
}

// TestProcessIntoMatchesProcess pins every destination-passing defense to
// its allocating Process output bit-for-bit (Randomization is checked with
// twin RNG states since its output is stochastic per call).
func TestProcessIntoMatchesProcess(t *testing.T) {
	img := imaging.NewImage(3, 24, 24)
	for i := range img.Pix {
		img.Pix[i] = float32(i%19) * 0.05
	}
	cases := []struct {
		name string
		a, b Preprocessor
	}{
		{"none", None{}, None{}},
		{"median", NewMedianBlur(), NewMedianBlur()},
		{"bitdepth", NewBitDepth(), NewBitDepth()},
		{"randomization", NewRandomization(7), NewRandomization(7)},
	}
	for _, tc := range cases {
		want := tc.a.Process(img)
		dst := imaging.NewImage(3, 24, 24)
		got := tc.b.(IntoPreprocessor).ProcessInto(dst, img)
		for i := range want.Pix {
			if want.Pix[i] != got.Pix[i] {
				t.Fatalf("%s: ProcessInto diverges from Process at %d", tc.name, i)
			}
		}
	}
}

// TestUNetTrainStepSteadyStateAllocs extends the budgets to the diffusion
// trainer's inner step: once the workspaces and the skip buffers (the
// forward concatenations and Backward's split gradients) are sized, a
// UNet forward plus backward must not allocate. The larger convs shard
// over the pool, which may refill its WaitGroup pool after a GC, so like
// the other sharded budgets this one allows a fraction of an alloc.
func TestUNetTrainStepSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	rng := xrand.New(17)
	u := NewUNet(rng, 5)
	x := tensor.New(5, 16, 16)
	rng.FillNormal(x.Data(), 0, 1)
	grad := tensor.New(3, 16, 16)
	rng.FillNormal(grad.Data(), 0, 0.1)
	step := func() {
		u.ZeroGrad()
		u.Forward(x, true)
		u.Backward(grad)
	}
	step() // size the workspaces and skip buffers
	if avg := testing.AllocsPerRun(20, step); avg >= 1 {
		t.Fatalf("UNet forward+backward allocates %.2f/op in steady state, want 0", avg)
	}
}
