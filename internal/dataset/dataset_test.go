package dataset

import (
	"testing"

	"repro/internal/imaging"
	"repro/internal/scene"
	"repro/internal/xrand"
)

func TestGenerateSignSetDeterministic(t *testing.T) {
	cfg := scene.DefaultSignConfig()
	a := GenerateSignSet(xrand.New(1), cfg, 10)
	b := GenerateSignSet(xrand.New(1), cfg, 10)
	if a.Len() != 10 || b.Len() != 10 {
		t.Fatalf("lens %d %d", a.Len(), b.Len())
	}
	for i := range a.Scenes {
		if a.Scenes[i].Img.MeanAbsDiff(b.Scenes[i].Img) != 0 {
			t.Fatalf("scene %d differs across same-seed generations", i)
		}
	}
}

func TestSignSetSplit(t *testing.T) {
	set := GenerateSignSet(xrand.New(2), scene.DefaultSignConfig(), 10)
	train, test := set.Split(0.8)
	if train.Len() != 8 || test.Len() != 2 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// Extremes clamp instead of panicking.
	all, none := set.Split(2.0)
	if all.Len() != 10 || none.Len() != 0 {
		t.Fatalf("clamped split sizes %d/%d", all.Len(), none.Len())
	}
}

func TestDriveSetStratified(t *testing.T) {
	cfg := scene.DefaultDriveConfig()
	buckets := [][2]float64{{5, 20}, {20, 40}, {40, 60}}
	set := GenerateDriveSetStratified(xrand.New(3), cfg, 4, buckets)
	if set.Len() != 12 {
		t.Fatalf("stratified len %d", set.Len())
	}
	counts := make([]int, len(buckets))
	for _, sc := range set.Scenes {
		for i, b := range buckets {
			if sc.Distance >= b[0] && sc.Distance < b[1] {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		if c != 4 {
			t.Fatalf("bucket %d has %d samples, want 4", i, c)
		}
	}
}

func TestDriveSetDistancesInRange(t *testing.T) {
	cfg := scene.DefaultDriveConfig()
	set := GenerateDriveSet(xrand.New(4), cfg, 50, 10, 30)
	for _, sc := range set.Scenes {
		if sc.Distance < 10 || sc.Distance >= 30 {
			t.Fatalf("distance %v outside [10,30)", sc.Distance)
		}
	}
}

func TestWithImagesSwapsPixelsKeepsLabels(t *testing.T) {
	set := GenerateSignSet(xrand.New(5), scene.DefaultSignConfig(), 5)
	imgs := make([]*imaging.Image, set.Len())
	for i := range imgs {
		imgs[i] = imaging.NewRGB(64, 64)
	}
	swapped := set.WithImages(imgs)
	for i := range swapped.Scenes {
		if swapped.Scenes[i].HasSign != set.Scenes[i].HasSign {
			t.Fatal("labels must be preserved")
		}
		if swapped.Scenes[i].Img != imgs[i] {
			t.Fatal("images must be swapped")
		}
	}
	// Original untouched.
	if set.Scenes[0].Img == imgs[0] {
		t.Fatal("original set mutated")
	}
}

func TestWithImagesLengthMismatchPanics(t *testing.T) {
	set := GenerateSignSet(xrand.New(6), scene.DefaultSignConfig(), 3)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	set.WithImages(make([]*imaging.Image, 2))
}
