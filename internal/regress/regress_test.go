package regress

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/scene"
	"repro/internal/xrand"
)

func TestNewRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size not divisible by 8 must panic")
		}
	}()
	New(xrand.New(1), 50)
}

func TestPredictFiniteAndDeterministic(t *testing.T) {
	r := New(xrand.New(1), 64)
	sc := scene.GenerateDrive(xrand.New(2), scene.DefaultDriveConfig(), 30)
	a := r.Predict(sc.Img)
	b := r.Predict(sc.Img)
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("prediction %v", a)
	}
	if a != b {
		t.Fatal("Predict must be deterministic")
	}
}

func TestTrainReducesRMSE(t *testing.T) {
	rng := xrand.New(3)
	cfg := scene.DefaultDriveConfig()
	set := dataset.GenerateDriveSet(rng.Split(), cfg, 120, cfg.MinZ, cfg.MaxZ)
	train, test := set.Split(0.8)

	r := New(rng.Split(), cfg.Size)
	before := r.RMSE(test)
	tc := DefaultTrainConfig()
	tc.Epochs = 8
	r.Train(train, tc)
	after := r.RMSE(test)
	if after >= before {
		t.Fatalf("training did not reduce RMSE: %.2f -> %.2f", before, after)
	}
	if after > 25 {
		t.Fatalf("post-training RMSE %.2f m too high", after)
	}
}

func TestDistanceGradPointsUphill(t *testing.T) {
	rng := xrand.New(4)
	cfg := scene.DefaultDriveConfig()
	set := dataset.GenerateDriveSet(rng.Split(), cfg, 60, cfg.MinZ, cfg.MaxZ)
	r := New(rng.Split(), cfg.Size)
	tc := DefaultTrainConfig()
	tc.Epochs = 4
	r.Train(set, tc)

	sc := set.Scenes[0]
	pred, grad := r.DistanceGrad(sc.Img)
	// Step along the gradient: prediction must increase.
	stepped := sc.Img.Clone()
	g := grad.Clone()
	g.SignInPlace()
	stepped.Tensor().AddScaledInPlace(g, 0.01)
	after := r.Predict(stepped)
	if after <= pred {
		t.Fatalf("gradient ascent did not raise prediction: %.2f -> %.2f", pred, after)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := xrand.New(7)
	r := New(rng.Split(), 64)
	c := r.Clone()
	sc := scene.GenerateDrive(xrand.New(8), scene.DefaultDriveConfig(), 25)
	a := r.Predict(sc.Img)
	c.Net.Params()[0].Value.Fill(0)
	if r.Predict(sc.Img) != a {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestTrainImagesMatchesTrain(t *testing.T) {
	rng := xrand.New(9)
	cfg := scene.DefaultDriveConfig()
	set := dataset.GenerateDriveSet(rng.Split(), cfg, 30, cfg.MinZ, cfg.MaxZ)

	imgs := make([]*imaging.Image, set.Len())
	dists := make([]float64, set.Len())
	for i, sc := range set.Scenes {
		imgs[i] = sc.Img
		dists[i] = sc.Distance
	}

	seed := rng.Split()
	a := New(seed, cfg.Size)
	b := &Regressor{Net: a.Net.Clone(), Size: a.Size, MaxDist: a.MaxDist}

	tc := DefaultTrainConfig()
	tc.Epochs = 2
	a.Train(set, tc)
	b.TrainImages(imgs, dists, tc)

	sc := set.Scenes[0]
	if a.Predict(sc.Img) != b.Predict(sc.Img) {
		t.Fatal("Train and TrainImages with identical data must agree")
	}
}
