package defense

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/xrand"
)

// trainedBits is what one training path leaves behind: the SHA-256 of the
// encoded weights, the bits of each loss it returned and its log lines.
type trainedBits struct {
	digest string
	losses []uint64
	logs   []string
}

// TestTrainedBits pins every training path to the weights, losses and log
// lines it produced when the digests were recorded: tiny fixed-seed models
// trained through the detector and regressor trainers (short tail batch,
// detector LR decay mid-run), the diffusion prior, both phases of the
// contrastive fine-tune and the adversarial fine-tune of a clone. Like the
// eval goldens the digests are amd64's; a change here means the trained
// models, and with them Tables III-V, changed.
func TestTrainedBits(t *testing.T) {
	want := map[string]trainedBits{
		"detect": {
			digest: "0e8462f1da964e3ff067c7b5d9efeab78a913bf266ae13039dd57b7eb7a0334c",
			losses: []uint64{0x3fe0cbe2a24cd64e},
			logs: []string{
				"detect: epoch 1/5 loss 1.02594",
				"detect: epoch 2/5 loss 0.68221",
				"detect: epoch 3/5 loss 0.63894",
				"detect: epoch 4/5 loss 0.54468",
				"detect: epoch 5/5 loss 0.52489",
			},
		},
		"regress": {
			digest: "476ab1a7889a5c9d95743a9c1620a5bba6c46f82934e378d31f84e397fc12711",
			losses: []uint64{0x3fbb9047412e29eb},
			logs: []string{
				"regress: epoch 1/3 loss 0.860315",
				"regress: epoch 2/3 loss 0.063208",
				"regress: epoch 3/3 loss 0.107670",
			},
		},
		"diffusion": {
			digest: "6d4a94024ea6a712851d9a54d75793d3acde5a0ad2c5b5a8e9f402652ef8cd8d",
			logs:   []string{"diffusion: step 50/50 loss 0.26010"},
		},
		"contrastive": {
			digest: "89a4bb8ce34d0fb617ede4a8c4afb3e707ee3400873ea0f84a33341d994637b8",
		},
		"advtrain": {
			digest: "a15aafe47a1361569ceb10faf9a069dafc671d4fc57a3bbe141e868cce524564",
			logs: []string{
				"detect: epoch 1/5 loss 1.17380",
				"detect: epoch 2/5 loss 0.69104",
				"detect: epoch 3/5 loss 0.69860",
				"detect: epoch 4/5 loss 0.60494",
				"detect: epoch 5/5 loss 0.59151",
				"regress: epoch 1/2 loss 0.254931",
				"regress: epoch 2/2 loss 0.030080",
			},
		},
	}
	for _, name := range []string{"detect", "regress", "diffusion", "contrastive", "advtrain"} {
		t.Run(name, func(t *testing.T) {
			got := trainPath(t, name)
			if w := want[name]; !reflect.DeepEqual(got, w) {
				t.Errorf("trained bits changed\n got: %#v\nwant: %#v", got, w)
			}
		})
	}
}

func trainPath(t *testing.T, name string) trainedBits {
	var out trainedBits
	logf := func(format string, args ...any) { out.logs = append(out.logs, fmt.Sprintf(format, args...)) }
	digest := func(params []*nn.Param) string {
		data, err := nn.EncodeParams(params)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	switch name {
	case "detect":
		// 5 epochs decay at epoch 3; 10 scenes in batches of 4 end short.
		det, signs := tinyDetector()
		imgs, gts := signImages(signs)
		cfg := tinyDetectConfig(logf)
		out.losses = append(out.losses, math.Float64bits(det.TrainImages(imgs, gts, cfg)))
		out.digest = digest(det.Net.Params())
	case "regress":
		reg, imgs, dists := tinyRegressor()
		cfg := regress.DefaultTrainConfig()
		cfg.Epochs, cfg.Batch, cfg.Logf = 3, 4, logf
		out.losses = append(out.losses, math.Float64bits(reg.TrainImages(imgs, dists, cfg)))
		out.digest = digest(reg.Net.Params())
	case "diffusion":
		cfg := DefaultDiffusionConfig()
		cfg.TrainSteps, cfg.Batch, cfg.Logf = 50, 2, logf
		d := NewDiffusion(xrand.New(41), cfg)
		frames := make([]*imaging.Image, 5)
		rng := xrand.New(42)
		for i := range frames {
			frames[i] = imaging.NewRGB(16, 16)
			rng.FillUniform(frames[i].Pix, 0, 1)
		}
		k := 0
		d.Train(cfg, func() *imaging.Image { k++; return frames[k%len(frames)] })
		out.digest = digest(d.Net.Params())
	case "contrastive":
		det, signs := tinyDetector()
		imgs, gts := signImages(signs)
		det.TrainImages(imgs, gts, tinyDetectConfig(nil))
		cfg := DefaultContrastiveConfig()
		cfg.Epochs, cfg.HeadEpochs, cfg.Batch = 2, 2, 4
		out.digest = digest(ContrastiveFineTune(det, signs, cfg).Net.Params())
	case "advtrain":
		// Fine-tune clones on noisy copies; the bases must stay untouched.
		det, signs := tinyDetector()
		imgs, gts := signImages(signs)
		reg, frames, dists := tinyRegressor()
		noise := xrand.New(43)
		for i := range imgs {
			imgs[i] = imgs[i].AddGaussianNoise(noise, 0.03).Clamp()
		}
		for i := range frames {
			frames[i] = frames[i].AddGaussianNoise(noise, 0.03).Clamp()
		}
		baseDet, baseReg := digest(det.Net.Params()), digest(reg.Net.Params())
		dcfg := tinyDetectConfig(logf)
		dcfg.LR = 1e-3
		rcfg := regress.DefaultTrainConfig()
		rcfg.Epochs, rcfg.Batch, rcfg.LR, rcfg.Logf = 2, 4, 1e-3, logf
		hd, hr := det.Clone(), reg.Clone()
		hd.TrainImages(imgs, gts, dcfg)
		hr.TrainImages(frames, dists, rcfg)
		if digest(det.Net.Params()) != baseDet || digest(reg.Net.Params()) != baseReg {
			t.Fatal("adversarial fine-tuning modified its base model")
		}
		out.digest = digest(append(hd.Net.Params(), hr.Net.Params()...))
	}
	return out
}

func tinyDetectConfig(logf func(string, ...any)) nn.TrainConfig {
	cfg := detect.DefaultTrainConfig()
	cfg.Epochs, cfg.Batch, cfg.Logf = 5, 4, logf
	return cfg
}

func tinyDetector() (*detect.Detector, *dataset.SignSet) {
	rng := xrand.New(44)
	cfg := scene.SignConfig{Size: 32, MinR: 5, MaxR: 9, NegProb: 0.1, Noise: 0.01}
	signs := dataset.GenerateSignSet(rng.Split(), cfg, 10)
	return detect.New(rng.Split(), cfg.Size), signs
}

func signImages(set *dataset.SignSet) ([]*imaging.Image, [][]detect.Box) {
	imgs := make([]*imaging.Image, set.Len())
	gts := make([][]detect.Box, set.Len())
	for i, sc := range set.Scenes {
		imgs[i], gts[i] = sc.Img, detect.GTBoxes(sc)
	}
	return imgs, gts
}

func tinyRegressor() (*regress.Regressor, []*imaging.Image, []float64) {
	rng := xrand.New(45)
	cfg := scene.DefaultDriveConfig()
	cfg.Size, cfg.Focal = 32, 75
	set := dataset.GenerateDriveSet(rng.Split(), cfg, 10, 5, 60)
	imgs := make([]*imaging.Image, set.Len())
	dists := make([]float64, set.Len())
	for i, sc := range set.Scenes {
		imgs[i], dists[i] = sc.Img, sc.Distance
	}
	return regress.New(rng.Split(), cfg.Size), imgs, dists
}
