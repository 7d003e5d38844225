// Stop-sign attack sweep: trains TinyDet, then measures mAP@50, precision
// and recall under every attack of the paper's Fig. 2 (None, FGSM,
// Auto-PGD, RP2, Gaussian, SimBA) plus the image-processing defenses of
// Table II applied to the strongest attack.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	advp "repro"
)

func main() {
	if err := run(context.Background(), os.Stdout, advp.Quick()); err != nil {
		log.Fatal(err)
	}
}

// run trains TinyDet at the preset's set sizes and epochs, then sweeps the
// attacks at the preset's attack steps, writing the report to w.
func run(ctx context.Context, w io.Writer, p advp.Preset) error {
	rng := advp.NewRNG(3)
	cfg := advp.DefaultSignConfig()
	train := advp.GenerateSignSet(rng.Split(), cfg, p.SignTrain)
	test := advp.GenerateSignSet(rng.Split(), cfg, p.SignTest)

	det := advp.NewDetector(rng.Split(), cfg.Size)
	tc := advp.DefaultDetectorTrainConfig()
	tc.Epochs = p.DetEpochs
	det.Train(train, tc)

	gts := make([][]advp.Box, test.Len())
	for i, sc := range test.Scenes {
		gts[i] = advp.GTBoxes(sc)
	}

	// The attack sweep of Fig. 2.
	sweeps := []struct {
		name string
		gen  func(i int) *advp.Image
	}{
		{"None", func(i int) *advp.Image { return test.Scenes[i].Img.Clone() }},
		{"FGSM", func(i int) *advp.Image {
			obj := &advp.DetectionObjective{Det: det, GT: gts[i]}
			return advp.FGSM(obj, test.Scenes[i].Img, 0.004, nil)
		}},
		{"Auto-PGD", func(i int) *advp.Image {
			obj := &advp.DetectionObjective{Det: det, GT: gts[i]}
			c := advp.DefaultAPGDConfig(0.0007)
			c.Steps = p.APGDSteps
			return advp.AutoPGD(obj, test.Scenes[i].Img, c, nil)
		}},
		{"RP2", func(i int) *advp.Image {
			sc := test.Scenes[i]
			if !sc.HasSign {
				return sc.Img.Clone()
			}
			obj := &advp.DetectionObjective{Det: det, GT: gts[i]}
			c := advp.DefaultRP2Config()
			c.Iters = p.RP2Iters
			return advp.RP2(obj, sc.Img, sc.Box, c)
		}},
		{"Gaussian", func(i int) *advp.Image {
			return advp.GaussianNoise(advp.NewRNG(int64(i)), test.Scenes[i].Img, 0.27, nil)
		}},
		{"SimBA", func(i int) *advp.Image {
			obj := &advp.DetectionObjective{Det: det, GT: gts[i]}
			c := advp.DefaultSimBAConfig()
			c.Eps, c.Steps, c.Seed = 0.12, p.SimBASteps, int64(i)
			return advp.SimBA(obj, test.Scenes[i].Img, c, nil)
		}},
	}

	fmt.Fprintf(w, "%-10s %8s %10s %8s\n", "Attack", "mAP50", "Precision", "Recall")
	var fgsmImgs []*advp.Image
	for _, sw := range sweeps {
		if err := ctx.Err(); err != nil {
			return err
		}
		imgs := make([]*advp.Image, test.Len())
		for i := range imgs {
			imgs[i] = sw.gen(i)
		}
		if sw.name == "FGSM" {
			fgsmImgs = imgs
		}
		s := det.EvaluateImages(imgs, gts, 0.5)
		fmt.Fprintf(w, "%-10s %8.2f %10.2f %8.2f\n", sw.name, 100*s.MAP50, 100*s.Precision, 100*s.Recall)
	}

	// Table II-style defense pass on the FGSM outputs.
	fmt.Fprintf(w, "\nFGSM + preprocessing defenses:\n")
	preps := []advp.Preprocessor{
		advp.NewMedianBlur(),
		advp.NewRandomization(5),
		advp.NewBitDepth(),
	}
	for _, prep := range preps {
		cleaned := make([]*advp.Image, len(fgsmImgs))
		for i, img := range fgsmImgs {
			cleaned[i] = prep.Process(img)
		}
		s := det.EvaluateImages(cleaned, gts, 0.5)
		fmt.Fprintf(w, "%-18s mAP50=%.2f%% P=%.2f%% R=%.2f%%\n", prep.Name(), 100*s.MAP50, 100*s.Precision, 100*s.Recall)
	}
	return nil
}
