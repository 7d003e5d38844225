package detect

import (
	"math"
	"testing"

	"repro/internal/box"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/scene"
	"repro/internal/xrand"
)

func TestNewRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size not divisible by 8 must panic")
		}
	}()
	New(xrand.New(1), 60)
}

func TestForwardShape(t *testing.T) {
	d := New(xrand.New(1), 64)
	sc := scene.GenerateSign(xrand.New(2), scene.DefaultSignConfig())
	raw := d.Forward(sc.Img)
	if raw.Dim(0) != 5 || raw.Dim(1) != 8 || raw.Dim(2) != 8 {
		t.Fatalf("raw shape %v", raw.Shape())
	}
}

func TestTargetsEncodeDecode(t *testing.T) {
	d := New(xrand.New(1), 64)
	gt := box.FromCenter(28, 36, 20, 22)
	target, weight := d.Targets([]box.Box{gt})

	// The positive cell is the one containing the center (28/8=3, 36/8=4).
	if target.At(0, 4, 3) != 1 {
		t.Fatal("objectness target not set at center cell")
	}
	if weight.At(1, 4, 3) == 0 {
		t.Fatal("box weights not set at positive cell")
	}
	// A perfect prediction must decode back to (approximately) the GT box.
	// Background cells need strongly negative logits (sigmoid(0) = 0.5
	// would pass the threshold).
	raw := target.Clone()
	for gy := 0; gy < d.Grid; gy++ {
		for gx := 0; gx < d.Grid; gx++ {
			raw.Set(-8, 0, gy, gx)
		}
	}
	raw.Set(8, 0, 4, 3) // objectness logit large => sigmoid ~1
	dets := d.Decode(raw, 0.5)
	if len(dets) != 1 {
		t.Fatalf("decoded %d boxes, want 1", len(dets))
	}
	if iou := dets[0].Box.IoU(gt); iou < 0.95 {
		t.Fatalf("decode IoU %v, want ~1", iou)
	}
}

func TestTargetsIgnoreOutOfBounds(t *testing.T) {
	d := New(xrand.New(1), 64)
	target, _ := d.Targets([]box.Box{box.FromCenter(200, 200, 10, 10)})
	if target.Sum() != 0 {
		t.Fatal("out-of-bounds GT must not set targets")
	}
}

func TestNMSSuppressesOverlaps(t *testing.T) {
	dets := []metrics.Detection{
		{Box: box.New(0, 0, 10, 10), Score: 0.9},
		{Box: box.New(1, 1, 11, 11), Score: 0.8}, // heavy overlap: suppressed
		{Box: box.New(30, 30, 40, 40), Score: 0.7},
	}
	keep := NMS(dets, 0.45)
	if len(keep) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(keep))
	}
	if keep[0].Score != 0.9 || keep[1].Score != 0.7 {
		t.Fatalf("NMS kept wrong boxes: %+v", keep)
	}
}

func TestNMSKeepsDisjoint(t *testing.T) {
	dets := []metrics.Detection{
		{Box: box.New(0, 0, 5, 5), Score: 0.6},
		{Box: box.New(20, 20, 25, 25), Score: 0.9},
	}
	keep := NMS(dets, 0.45)
	if len(keep) != 2 {
		t.Fatalf("NMS dropped disjoint boxes: %+v", keep)
	}
	// Sorted by score.
	if keep[0].Score < keep[1].Score {
		t.Fatal("NMS output not score-sorted")
	}
}

func TestLossGradDirection(t *testing.T) {
	d := New(xrand.New(3), 64)
	sc := scene.GenerateSign(xrand.New(4), scene.DefaultSignConfig())
	raw := d.Forward(sc.Img)
	loss, grad := d.LossGrad(raw, GTBoxes(sc))
	if loss <= 0 {
		t.Fatalf("untrained loss %v, want > 0", loss)
	}
	// One gradient-descent step on the raw map must reduce the loss.
	stepped := raw.Clone()
	stepped.AddScaledInPlace(grad, -5)
	loss2, _ := d.LossGrad(stepped, GTBoxes(sc))
	if loss2 >= loss {
		t.Fatalf("loss did not decrease along -grad: %v -> %v", loss, loss2)
	}
}

func TestTrainImprovesDetection(t *testing.T) {
	rng := xrand.New(5)
	cfg := scene.DefaultSignConfig()
	set := dataset.GenerateSignSet(rng.Split(), cfg, 130)
	train, test := set.Split(0.8)

	d := New(rng.Split(), cfg.Size)
	before := d.Evaluate(test, 0.5)

	tc := DefaultTrainConfig()
	tc.Epochs = 12
	lastLoss := d.Train(train, tc)
	after := d.Evaluate(test, 0.5)

	if lastLoss <= 0 || math.IsNaN(lastLoss) {
		t.Fatalf("bad final loss %v", lastLoss)
	}
	if after.MAP50 <= before.MAP50 {
		t.Fatalf("training did not improve mAP: %.3f -> %.3f", before.MAP50, after.MAP50)
	}
	if after.MAP50 < 0.3 {
		t.Fatalf("post-training mAP %.3f suspiciously low", after.MAP50)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := xrand.New(6)
	d := New(rng.Split(), 64)
	c := d.Clone()
	sc := scene.GenerateSign(xrand.New(7), scene.DefaultSignConfig())
	a := d.Forward(sc.Img).Clone()
	c.Net.Params()[0].Value.Fill(0)
	b := d.Forward(sc.Img)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("clone mutation leaked into original")
		}
	}
}

func TestMaxObjectnessInUnitRange(t *testing.T) {
	d := New(xrand.New(8), 64)
	sc := scene.GenerateSign(xrand.New(9), scene.DefaultSignConfig())
	s := d.MaxObjectness(sc.Img)
	if s <= 0 || s >= 1 {
		t.Fatalf("objectness %v outside (0,1)", s)
	}
}

func TestTrainLossReturnsInputGradient(t *testing.T) {
	d := New(xrand.New(10), 64)
	sc := scene.GenerateSign(xrand.New(11), scene.DefaultSignConfig())
	_, grad := d.TrainLoss(sc.Img, GTBoxes(sc))
	if grad.Dim(0) != 3 || grad.Dim(1) != 64 || grad.Dim(2) != 64 {
		t.Fatalf("input grad shape %v", grad.Shape())
	}
	for _, v := range grad.Data() {
		if v != 0 {
			return
		}
	}
	t.Fatal("input gradient is identically zero")
}

func TestGTBoxes(t *testing.T) {
	sc := scene.SignScene{HasSign: false}
	if GTBoxes(sc) != nil {
		t.Fatal("negative scene must yield nil GT")
	}
	sc = scene.SignScene{HasSign: true, Box: box.New(0, 0, 5, 5)}
	if len(GTBoxes(sc)) != 1 {
		t.Fatal("positive scene must yield one GT box")
	}
}
