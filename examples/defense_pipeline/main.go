// Defense pipeline: compares all four defense families on one batch of
// Auto-PGD-attacked driving frames — classical preprocessing, adversarial
// training, and diffusion restoration — reporting induced distance error
// and wall-clock cost per frame, mirroring the paper's §VI discussion of
// accuracy/latency trade-offs.
package main

import (
	"fmt"
	"log"
	"time"

	advp "repro"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/imaging"
	"repro/internal/regress"
	"repro/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := advp.NewRNG(17)
	cfg := advp.DefaultDriveConfig()
	trainSet := advp.GenerateDriveSet(rng.Split(), cfg, 300, cfg.MinZ, cfg.MaxZ)
	testSet := advp.GenerateDriveSet(rng.Split(), cfg, 40, 5, 25) // near range, where attacks bite

	reg := advp.NewRegressor(rng.Split(), cfg.Size)
	rc := regress.DefaultTrainConfig()
	rc.Epochs = 12
	reg.Train(trainSet, rc)

	// Attack the test batch (Auto-PGD confined to the lead box).
	obj := &attack.RegressionObjective{Reg: reg}
	attacked := make([]*advp.Image, testSet.Len())
	for i, sc := range testSet.Scenes {
		mask := advp.BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
		attacked[i] = advp.AutoPGD(obj, sc.Img, attack.DefaultAPGDConfig(0.03), mask)
	}
	meanErr := func(r *advp.Regressor, imgs []*advp.Image, prep defense.Preprocessor) (float64, time.Duration) {
		var total float64
		var prepTime time.Duration
		for i, sc := range testSet.Scenes {
			img := imgs[i]
			if prep != nil {
				t0 := time.Now()
				img = prep.Process(img)
				prepTime += time.Since(t0)
			}
			total += r.Predict(img) - r.Predict(sc.Img)
		}
		return total / float64(len(imgs)), prepTime / time.Duration(len(imgs))
	}

	base, _ := meanErr(reg, attacked, nil)
	fmt.Printf("%-22s induced error %7.2f m\n", "no defense", base)

	// 1) Classical preprocessing.
	for _, p := range []defense.Preprocessor{
		defense.NewMedianBlur(),
		defense.NewRandomization(11),
		defense.NewBitDepth(),
	} {
		e, dt := meanErr(reg, attacked, p)
		fmt.Printf("%-22s induced error %7.2f m   (%v/frame)\n", p.Name(), e, dt.Round(time.Microsecond))
	}

	// 2) Adversarial training: fine-tune on attacked training frames.
	advImgs, dists := defense.AdvDriveSet(trainSet, func(i int, img *advp.Image) *advp.Image {
		sc := trainSet.Scenes[i]
		mask := advp.BoxMask(img.C, img.H, img.W, sc.LeadBox, 1)
		return advp.AutoPGD(obj, img, attack.DefaultAPGDConfig(0.03), mask)
	})
	ac := regress.DefaultTrainConfig()
	ac.Epochs, ac.LR = 6, 1e-3
	hardened := reg.Clone()
	hardened.TrainImages(advImgs, dists, ac)
	// Re-attack against the hardened model (adaptive evaluation).
	hobj := &attack.RegressionObjective{Reg: hardened}
	reAttacked := make([]*advp.Image, testSet.Len())
	for i, sc := range testSet.Scenes {
		mask := advp.BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
		reAttacked[i] = advp.AutoPGD(hobj, sc.Img, attack.DefaultAPGDConfig(0.03), mask)
	}
	e, _ := meanErr(hardened, reAttacked, nil)
	fmt.Printf("%-22s induced error %7.2f m   (adaptive re-attack)\n", "adversarial training", e)

	// 3) Diffusion restoration (DiffPIR) with a small prior.
	dcfg := defense.DefaultDiffusionConfig()
	dcfg.TrainSteps = 150
	diff := defense.NewDiffusion(xrand.New(23), dcfg)
	pick := xrand.New(29)
	diff.Train(dcfg, func() *imaging.Image {
		return trainSet.Scenes[pick.Intn(trainSet.Len())].Img
	})
	dp := &defense.DiffPIRDefense{Model: diff, Cfg: defense.DefaultDiffPIRConfig()}
	e, dt := meanErr(reg, attacked, dp)
	fmt.Printf("%-22s induced error %7.2f m   (%v/frame)\n", dp.Name(), e, dt.Round(time.Millisecond))

	return nil
}
