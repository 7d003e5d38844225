// Defense pipeline: compares all four defense families on one batch of
// Auto-PGD-attacked driving frames — classical preprocessing, adversarial
// training, and diffusion restoration — reporting induced distance error
// and wall-clock cost per frame, mirroring the paper's §VI discussion of
// accuracy/latency trade-offs.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	advp "repro"
)

func main() {
	if err := run(context.Background(), os.Stdout, advp.Quick()); err != nil {
		log.Fatal(err)
	}
}

// run trains DistNet, its adversarial fine-tune and the diffusion prior
// at the preset's set sizes, epochs and steps, writing the report to w.
func run(ctx context.Context, w io.Writer, p advp.Preset) error {
	rng := advp.NewRNG(17)
	cfg := advp.DefaultDriveConfig()
	trainSet := advp.GenerateDriveSet(rng.Split(), cfg, p.DriveTrain, cfg.MinZ, cfg.MaxZ)
	testSet := advp.GenerateDriveSet(rng.Split(), cfg, p.DrivePerBucket, 5, 25) // near range, where attacks bite

	reg := advp.NewRegressor(rng.Split(), cfg.Size)
	rc := advp.DefaultRegressorTrainConfig()
	rc.Epochs = p.RegEpochs
	reg.Train(trainSet, rc)

	// Attack the test batch (Auto-PGD confined to the lead box).
	apgd := advp.DefaultAPGDConfig(0.03)
	apgd.Steps = p.APGDSteps
	obj := &advp.RegressionObjective{Reg: reg}
	attacked := make([]*advp.Image, testSet.Len())
	for i, sc := range testSet.Scenes {
		mask := advp.BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
		attacked[i] = advp.AutoPGD(obj, sc.Img, apgd, mask)
	}
	meanErr := func(r *advp.Regressor, imgs []*advp.Image, prep advp.Preprocessor) (float64, time.Duration) {
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
	fmt.Fprintf(w, "%-22s induced error %7.2f m\n", "no defense", base)

	// 1) Classical preprocessing.
	for _, prep := range []advp.Preprocessor{
		advp.NewMedianBlur(),
		advp.NewRandomization(11),
		advp.NewBitDepth(),
	} {
		e, dt := meanErr(reg, attacked, prep)
		fmt.Fprintf(w, "%-22s induced error %7.2f m   (%v/frame)\n", prep.Name(), e, dt.Round(time.Microsecond))
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// 2) Adversarial training: fine-tune on attacked training frames.
	advImgs, dists := advp.AdvDriveSet(trainSet, func(i int, img *advp.Image) *advp.Image {
		sc := trainSet.Scenes[i]
		mask := advp.BoxMask(img.C, img.H, img.W, sc.LeadBox, 1)
		return advp.AutoPGD(obj, img, apgd, mask)
	})
	ac := advp.DefaultRegressorTrainConfig()
	ac.Epochs, ac.LR = p.AdvEpochs, 1e-3
	hardened := reg.Clone()
	hardened.TrainImages(advImgs, dists, ac)
	// Re-attack against the hardened model (adaptive evaluation).
	hobj := &advp.RegressionObjective{Reg: hardened}
	reAttacked := make([]*advp.Image, testSet.Len())
	for i, sc := range testSet.Scenes {
		mask := advp.BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
		reAttacked[i] = advp.AutoPGD(hobj, sc.Img, apgd, mask)
	}
	e, _ := meanErr(hardened, reAttacked, nil)
	fmt.Fprintf(w, "%-22s induced error %7.2f m   (adaptive re-attack)\n", "adversarial training", e)
	if err := ctx.Err(); err != nil {
		return err
	}

	// 3) Diffusion restoration (DiffPIR) with a small prior.
	dcfg := advp.DefaultDiffusionConfig()
	dcfg.TrainSteps = p.DiffusionSteps
	diff := advp.NewDiffusion(advp.NewRNG(23), dcfg)
	pick := advp.NewRNG(29)
	diff.Train(dcfg, func() *advp.Image {
		return trainSet.Scenes[pick.Intn(trainSet.Len())].Img
	})
	pcfg := advp.DefaultDiffPIRConfig()
	pcfg.Steps = p.DiffPIRSteps
	dp := &advp.DiffPIRDefense{Model: diff, Cfg: pcfg}
	e, dt := meanErr(reg, attacked, dp)
	fmt.Fprintf(w, "%-22s induced error %7.2f m   (%v/frame)\n", dp.Name(), e, dt.Round(time.Millisecond))

	return nil
}
