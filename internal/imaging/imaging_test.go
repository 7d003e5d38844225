package imaging

import (
	"bytes"
	"image/png"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func randImage(rng *xrand.RNG, h, w int) *Image {
	im := NewRGB(h, w)
	rng.FillUniform(im.Pix, 0, 1)
	return im
}

func TestAtSetRGB(t *testing.T) {
	im := NewRGB(4, 4)
	im.SetRGB(1, 2, Red)
	got := rgbAt(im, 1, 2)
	if got != Red {
		t.Fatalf("SetRGB wrote %v, want %v", got, Red)
	}
	im.Set(1, 3, 3, 0.5)
	if im.At(1, 3, 3) != 0.5 {
		t.Fatal("At/Set channel access broken")
	}
}

// rgbAt reads the RGB color at (y, x).
func rgbAt(im *Image, y, x int) Color {
	return Color{im.At(0, y, x), im.At(1, y, x), im.At(2, y, x)}
}

func TestCloneIndependent(t *testing.T) {
	im := NewRGB(2, 2)
	c := im.Clone()
	c.Pix[0] = 1
	if im.Pix[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestFillAndClamp(t *testing.T) {
	im := NewRGB(2, 2)
	im.Fill(Color{0.5, 0.6, 0.7})
	if im.At(2, 1, 1) != 0.7 {
		t.Fatal("Fill wrong")
	}
	im.Pix[0] = -3
	im.Pix[1] = 9
	im.Clamp()
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatal("Clamp wrong")
	}
}

func TestTensorSharesStorage(t *testing.T) {
	im := NewRGB(2, 2)
	tt := im.Tensor()
	tt.Data()[0] = 0.25
	if im.Pix[0] != 0.25 {
		t.Fatal("Tensor must view the pixel buffer")
	}
	back := FromTensor(tt)
	if back.H != 2 || back.W != 2 || back.C != 3 {
		t.Fatalf("FromTensor shape %dx%dx%d", back.C, back.H, back.W)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	im := randImage(rng, 8, 9)
	var buf bytes.Buffer
	if err := im.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b := back.Bounds(); b.Dy() != 8 || b.Dx() != 9 {
		t.Fatalf("decoded size %dx%d", b.Dy(), b.Dx())
	}
	// 8-bit quantisation: error bounded by 1/255.
	for y := 0; y < 8; y++ {
		for x := 0; x < 9; x++ {
			r, g, b, _ := back.At(x, y).RGBA()
			for c, v := range [3]uint32{r, g, b} {
				if d := math.Abs(float64(v)/65535 - float64(im.At(c, y, x))); d > 1.0/255 {
					t.Fatalf("PNG round-trip error %v at channel %d (%d,%d)", d, c, y, x)
				}
			}
		}
	}
}

func TestFillRectClipped(t *testing.T) {
	im := NewRGB(4, 4)
	im.FillRect(-2, -2, 2, 2, White) // partially off-canvas
	if rgbAt(im, 0, 0) != White || rgbAt(im, 1, 1) != White {
		t.Fatal("in-bounds region not painted")
	}
	if rgbAt(im, 2, 2) == White {
		t.Fatal("painted outside requested rect")
	}
}

func TestFillPolygonSquare(t *testing.T) {
	im := NewRGB(10, 10)
	im.FillPolygon([]Point{{X: 2, Y: 2}, {X: 8, Y: 2}, {X: 8, Y: 8}, {X: 2, Y: 8}}, White)
	if rgbAt(im, 5, 5) != White {
		t.Fatal("polygon interior not filled")
	}
	if rgbAt(im, 0, 0) == White || rgbAt(im, 9, 9) == White {
		t.Fatal("polygon exterior painted")
	}
}

func TestRegularPolygonGeometry(t *testing.T) {
	pts := RegularPolygon(10, 10, 5, 8, 0)
	if len(pts) != 8 {
		t.Fatalf("vertices = %d", len(pts))
	}
	for _, p := range pts {
		r := math.Hypot(p.X-10, p.Y-10)
		if math.Abs(r-5) > 1e-9 {
			t.Fatalf("vertex radius %v, want 5", r)
		}
	}
}

func TestFillCircle(t *testing.T) {
	im := NewRGB(11, 11)
	im.FillCircle(5, 5, 3, Red)
	if rgbAt(im, 5, 5) != Red {
		t.Fatal("circle center not painted")
	}
	if rgbAt(im, 0, 0) == Red {
		t.Fatal("far corner painted")
	}
}

func TestDrawGlyphText(t *testing.T) {
	im := NewRGB(10, 20)
	im.DrawGlyphText(1, 1, "STOP", 1, White)
	var lit int
	for _, v := range im.Pix {
		if v == 1 {
			lit++
		}
	}
	if lit == 0 {
		t.Fatal("glyph text painted nothing")
	}
}

func TestResizeBilinearConstant(t *testing.T) {
	im := NewRGB(6, 6)
	im.Fill(Color{0.3, 0.3, 0.3})
	out := im.ResizeBilinearInto(NewRGB(3, 9))
	if out.H != 3 || out.W != 9 {
		t.Fatalf("resize shape %dx%d", out.H, out.W)
	}
	for _, v := range out.Pix {
		if math.Abs(float64(v)-0.3) > 1e-6 {
			t.Fatalf("constant image changed value: %v", v)
		}
	}
}

// Property: resizing preserves the value range of the source image.
func TestResizePreservesRange(t *testing.T) {
	f := func(seed int64) bool {
		r := xrand.New(seed)
		im := randImage(r, 4+r.Intn(8), 4+r.Intn(8))
		out := im.ResizeBilinearInto(NewRGB(3+r.Intn(12), 3+r.Intn(12)))
		for _, v := range out.Pix {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPadTo(t *testing.T) {
	im := NewRGB(2, 2)
	im.Fill(White)
	out := im.PadToInto(NewRGB(4, 4), 1, 1, Black)
	if rgbAt(out, 0, 0) != Black || rgbAt(out, 1, 1) != White || rgbAt(out, 2, 2) != White {
		t.Fatal("PadToInto placement wrong")
	}
}

func TestTranslateClampEdge(t *testing.T) {
	im := NewRGB(3, 3)
	im.SetRGB(0, 0, Red)
	out := im.Translate(1, 1)
	if rgbAt(out, 1, 1) != Red {
		t.Fatal("Translate moved content wrong")
	}
	if rgbAt(out, 0, 0) != Red {
		t.Fatal("clamp-to-edge fill expected at origin")
	}
}

func TestMedianBlurRemovesImpulse(t *testing.T) {
	im := NewRGB(9, 9)
	im.Fill(Gray)
	im.SetRGB(4, 4, White) // single-pixel impulse = adversarial salt
	out := MedianBlur(im, 3)
	if rgbAt(out, 4, 4) != Gray {
		t.Fatalf("median blur failed to remove impulse: %v", rgbAt(out, 4, 4))
	}
}

func TestMedianBlurPreservesConstant(t *testing.T) {
	im := NewRGB(5, 5)
	im.Fill(Color{0.4, 0.5, 0.6})
	out := MedianBlur(im, 3)
	if out.MeanAbsDiff(im) > 1e-6 {
		t.Fatal("median blur changed a constant image")
	}
}

func TestMedianBlurRejectsEvenKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even kernel must panic")
		}
	}()
	MedianBlur(NewRGB(4, 4), 2)
}

func TestBitDepthLevels(t *testing.T) {
	im := NewRGB(1, 1)
	im.Fill(Color{0.49, 0.51, 1})
	out := BitDepthReduce(im, 1) // levels {0, 1}
	if out.At(0, 0, 0) != 0 || out.At(1, 0, 0) != 1 || out.At(2, 0, 0) != 1 {
		t.Fatalf("1-bit quantisation wrong: %v", out.Pix)
	}
}

// Property: bit-depth reduction is idempotent and outputs only valid levels.
func TestBitDepthIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := xrand.New(seed)
		im := randImage(r, 4, 4)
		bits := 1 + r.Intn(8)
		once := BitDepthReduce(im, bits)
		twice := BitDepthReduce(once, bits)
		return once.MeanAbsDiff(twice) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianBlurSmooths(t *testing.T) {
	rng := xrand.New(2)
	im := randImage(rng, 16, 16)
	out := GaussianBlurInto(NewRGB(16, 16), im, 1.0)
	// Smoothing must reduce total variation.
	tv := func(x *Image) float64 {
		var s float64
		for c := 0; c < 3; c++ {
			for y := 0; y < x.H; y++ {
				for xx := 1; xx < x.W; xx++ {
					s += math.Abs(float64(x.At(c, y, xx) - x.At(c, y, xx-1)))
				}
			}
		}
		return s
	}
	if tv(out) >= tv(im) {
		t.Fatal("Gaussian blur did not smooth")
	}
}

func TestRandomResizePadShapeAndDeterminism(t *testing.T) {
	im := randImage(xrand.New(3), 16, 16)
	a := RandomResizePad(xrand.New(7), im, 0.8, 0.02)
	b := RandomResizePad(xrand.New(7), im, 0.8, 0.02)
	if a.H != 16 || a.W != 16 {
		t.Fatalf("output shape %dx%d", a.H, a.W)
	}
	if a.MeanAbsDiff(b) != 0 {
		t.Fatal("same seed must give identical randomization")
	}
	c := RandomResizePad(xrand.New(8), im, 0.8, 0.02)
	if a.MeanAbsDiff(c) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestAdjustBrightnessClamps(t *testing.T) {
	im := NewRGB(1, 1)
	im.Fill(Color{0.8, 0.8, 0.8})
	out := im.AdjustBrightness(2)
	if out.At(0, 0, 0) != 1 {
		t.Fatal("brightness must clamp at 1")
	}
}
