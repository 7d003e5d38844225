package scene

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
	"repro/internal/xrand"
)

func TestGenerateSignDeterministic(t *testing.T) {
	cfg := DefaultSignConfig()
	a := GenerateSign(xrand.New(5), cfg)
	b := GenerateSign(xrand.New(5), cfg)
	if a.HasSign != b.HasSign {
		t.Fatal("same seed, different sign presence")
	}
	if a.Img.MeanAbsDiff(b.Img) != 0 {
		t.Fatal("same seed must render identical scenes")
	}
}

func TestGenerateSignBoxInBounds(t *testing.T) {
	cfg := DefaultSignConfig()
	rng := xrand.New(1)
	for i := 0; i < 50; i++ {
		sc := GenerateSign(rng, cfg)
		if !sc.HasSign {
			continue
		}
		b := sc.Box
		if b.X0 < 0 || b.Y0 < 0 || b.X1 > float64(cfg.Size) || b.Y1 > float64(cfg.Size) {
			t.Fatalf("box out of bounds: %+v", b)
		}
		if b.W() < cfg.MinR || b.H() < cfg.MinR {
			t.Fatalf("box too small: %+v", b)
		}
	}
}

// The sign region must actually be dominated by red-ish pixels — the
// ground-truth box and the rendering must agree.
func TestGenerateSignBoxCoversRedPixels(t *testing.T) {
	cfg := DefaultSignConfig()
	cfg.Noise = 0
	rng := xrand.New(2)
	for i := 0; i < 20; i++ {
		sc := GenerateSign(rng, cfg)
		if !sc.HasSign {
			continue
		}
		b := sc.Box
		var red, total int
		for y := int(b.Y0); y < int(b.Y1); y++ {
			for x := int(b.X0); x < int(b.X1); x++ {
				col := [3]float32{sc.Img.At(0, y, x), sc.Img.At(1, y, x), sc.Img.At(2, y, x)}
				total++
				if col[0] > col[1]*1.5 && col[0] > col[2]*1.5 {
					red++
				}
			}
		}
		if total == 0 || float64(red)/float64(total) < 0.2 {
			t.Fatalf("sign box contains too few red pixels: %d/%d", red, total)
		}
	}
}

func TestGenerateSignNegativeRate(t *testing.T) {
	cfg := DefaultSignConfig()
	cfg.NegProb = 0.5
	rng := xrand.New(3)
	neg := 0
	const n = 400
	for i := 0; i < n; i++ {
		if !GenerateSign(rng, cfg).HasSign {
			neg++
		}
	}
	if neg < n/2-60 || neg > n/2+60 {
		t.Fatalf("negative rate %d/%d, want ~0.5", neg, n)
	}
}

func TestCameraProjection(t *testing.T) {
	cam := Camera{Focal: 100, Height: 1.5, CenterY: 30, CenterX: 32}
	// Road point at 10 m: row = 30 + 100*1.5/10 = 45.
	if got := cam.RowFor(10); math.Abs(got-45) > 1e-9 {
		t.Fatalf("RowFor = %v, want 45", got)
	}
	// 2 m wide object at 10 m spans 20 px.
	if got := cam.Span(2, 10); math.Abs(got-20) > 1e-9 {
		t.Fatalf("Span = %v, want 20", got)
	}
}

// Property: apparent size decreases monotonically with distance.
func TestLeadBoxShrinksWithDistance(t *testing.T) {
	cfg := DefaultDriveConfig()
	cfg.Noise = 0
	f := func(seed int64) bool {
		r := xrand.New(seed)
		z1 := r.Uniform(5, 30)
		z2 := z1 + r.Uniform(5, 40)
		a := GenerateDrive(xrand.New(seed), cfg, z1)
		b := GenerateDrive(xrand.New(seed), cfg, z2)
		if a.LeadBox.Empty() || b.LeadBox.Empty() {
			return true // far box may degenerate; nothing to compare
		}
		return a.LeadBox.Area() > b.LeadBox.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLeadBoxMatchesPinhole(t *testing.T) {
	cfg := DefaultDriveConfig()
	cfg.Noise = 0
	cam := cfg.Camera()
	sc := GenerateDrive(xrand.New(9), cfg, 20)
	wantW := cam.Span(cfg.CarWidth, 20)
	if math.Abs(sc.LeadBox.W()-wantW) > 2 {
		t.Fatalf("lead box width %v, want ~%v", sc.LeadBox.W(), wantW)
	}
	wantBottom := cam.RowFor(20)
	if math.Abs(sc.LeadBox.Y1-wantBottom) > 2 {
		t.Fatalf("lead box bottom %v, want ~%v", sc.LeadBox.Y1, wantBottom)
	}
}

func TestRendererFrozenAppearance(t *testing.T) {
	cfg := DefaultDriveConfig()
	cfg.Noise = 0
	r := NewRenderer(xrand.New(6), cfg)
	a := r.Render(30)
	b := r.Render(30)
	if a.Img.MeanAbsDiff(b.Img) != 0 {
		t.Fatal("renderer must be appearance-stable at fixed distance")
	}
	c := r.Render(10)
	if c.LeadBox.Area() <= a.LeadBox.Area() {
		t.Fatal("closer lead must appear bigger")
	}
}

func TestDriveSceneFarDistanceDegenerates(t *testing.T) {
	cfg := DefaultDriveConfig()
	sc := GenerateDrive(xrand.New(7), cfg, cfg.MaxZ)
	// At max range the car is just a couple of pixels, possibly empty —
	// this must not panic and any box must stay in bounds.
	if !sc.LeadBox.Empty() {
		if sc.LeadBox.X1 > float64(cfg.Size) || sc.LeadBox.Y1 > float64(cfg.Size) {
			t.Fatalf("far lead box out of bounds: %+v", sc.LeadBox)
		}
	}
}

func TestRendererRenderAtLateral(t *testing.T) {
	cfg := DefaultDriveConfig()
	cfg.Noise = 0
	r := NewRenderer(xrand.New(6), cfg)
	center := r.RenderAt(20, 0)
	offset := r.RenderAt(20, 1.5)
	if center.LeadBox.Empty() || offset.LeadBox.Empty() {
		t.Fatal("lead must be visible at 20 m")
	}
	cx := (center.LeadBox.X0 + center.LeadBox.X1) / 2
	ox := (offset.LeadBox.X0 + offset.LeadBox.X1) / 2
	if ox <= cx {
		t.Fatalf("positive lateral offset must shift the lead right: %v vs %v", cx, ox)
	}
}

func TestBrightRange(t *testing.T) {
	cfg := DefaultDriveConfig()
	lo, hi := cfg.brightRange()
	if lo != 0.85 || hi != 1.05 {
		t.Fatalf("unset bounds must select daylight defaults, got [%v,%v]", lo, hi)
	}
	cfg.BrightMin, cfg.BrightMax = 0.35, 0.5
	lo, hi = cfg.brightRange()
	if lo != 0.35 || hi != 0.5 {
		t.Fatalf("explicit bounds ignored: [%v,%v]", lo, hi)
	}
	cfg.BrightMin, cfg.BrightMax = 0.5, 0 // bounds default independently
	if lo, hi = cfg.brightRange(); lo != 0.5 || hi != 1.05 {
		t.Fatalf("raising only the floor must keep the default ceiling: [%v,%v]", lo, hi)
	}
	cfg.BrightMin, cfg.BrightMax = 0.4, 0.2 // inverted: clamp, don't panic
	if lo, hi = cfg.brightRange(); lo != hi || hi != 0.2 {
		t.Fatalf("inverted bounds must collapse onto the ceiling: [%v,%v]", lo, hi)
	}
}

func TestNightConfigDarkensScene(t *testing.T) {
	day := DefaultDriveConfig()
	day.Noise = 0
	night := day
	night.BrightMin, night.BrightMax = 0.35, 0.5
	dayScene := NewRenderer(xrand.New(3), day).Render(25)
	nightScene := NewRenderer(xrand.New(3), night).Render(25)
	var dsum, nsum float64
	for i := range dayScene.Img.Pix {
		dsum += float64(dayScene.Img.Pix[i])
		nsum += float64(nightScene.Img.Pix[i])
	}
	if nsum >= dsum {
		t.Fatalf("night scene must be darker: day %.1f vs night %.1f", dsum, nsum)
	}
}

// TestAddSensorNoiseMatchesAllocatingPath pins the in-place sensor noise to
// AddGaussianNoise followed by Clamp: same draws in the same order, same
// bits, including pixels pushed past either end of [0, 1].
func TestAddSensorNoiseMatchesAllocatingPath(t *testing.T) {
	img := imaging.NewRGB(9, 7)
	xrand.New(3).FillUniform(img.Pix, -0.2, 1.2)
	want := img.AddGaussianNoise(xrand.New(4), 0.3).Clamp()
	addSensorNoise(img, xrand.New(4), 0.3)
	for i := range want.Pix {
		if math.Float32bits(img.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("pixel %d = %v, want %v", i, img.Pix[i], want.Pix[i])
		}
	}
}
