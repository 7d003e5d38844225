// Quickstart: train the two victim perception models on synthetic data,
// attack each with FGSM, and print the damage — the library's two core
// loops (detection and distance regression) in ~60 lines.
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

// run trains and attacks both victims at the preset's set sizes, epochs
// and attack steps, writing the report to w.
func run(ctx context.Context, w io.Writer, p advp.Preset) error {
	rng := advp.NewRNG(1)

	// --- Task 1: stop-sign detection (TinyDet, the YOLOv8 stand-in). ---
	signCfg := advp.DefaultSignConfig()
	trainSigns := advp.GenerateSignSet(rng.Split(), signCfg, p.SignTrain)
	testSigns := advp.GenerateSignSet(rng.Split(), signCfg, p.SignTest)

	det := advp.NewDetector(rng.Split(), signCfg.Size)
	dcfg := advp.DefaultDetectorTrainConfig()
	dcfg.Epochs = p.DetEpochs
	det.Train(trainSigns, dcfg)

	clean := det.Evaluate(testSigns, 0.5)
	fmt.Fprintf(w, "detector  clean: mAP50=%.1f%% precision=%.1f%% recall=%.1f%%\n",
		100*clean.MAP50, 100*clean.Precision, 100*clean.Recall)

	// FGSM each test image against its ground truth.
	attacked := make([]*advp.Image, testSigns.Len())
	gts := make([][]advp.Box, testSigns.Len())
	for i, sc := range testSigns.Scenes {
		gts[i] = advp.GTBoxes(sc)
		obj := &advp.DetectionObjective{Det: det, GT: gts[i]}
		attacked[i] = advp.FGSM(obj, sc.Img, 0.01, nil)
	}
	adv := det.EvaluateImages(attacked, gts, 0.5)
	fmt.Fprintf(w, "detector   FGSM: mAP50=%.1f%% precision=%.1f%% recall=%.1f%%\n",
		100*adv.MAP50, 100*adv.Precision, 100*adv.Recall)
	if err := ctx.Err(); err != nil {
		return err
	}

	// --- Task 2: lead-distance regression (DistNet, the Supercombo stand-in). ---
	driveCfg := advp.DefaultDriveConfig()
	drives := advp.GenerateDriveSet(rng.Split(), driveCfg, p.DriveTrain, driveCfg.MinZ, driveCfg.MaxZ)
	trainDrives, testDrives := drives.Split(0.8)

	reg := advp.NewRegressor(rng.Split(), driveCfg.Size)
	rcfg := advp.DefaultRegressorTrainConfig()
	rcfg.Epochs = p.RegEpochs
	reg.Train(trainDrives, rcfg)
	fmt.Fprintf(w, "regressor clean: RMSE=%.2f m\n", reg.RMSE(testDrives))

	// Attack one near frame: the classic "lead looks farther than it is".
	sc := testDrives.Scenes[0]
	obj := &advp.RegressionObjective{Reg: reg}
	mask := advp.BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
	acfg := advp.DefaultAPGDConfig(0.03)
	acfg.Steps = p.APGDSteps
	advImg := advp.AutoPGD(obj, sc.Img, acfg, mask)
	fmt.Fprintf(w, "regressor attack demo: true=%.1f m, clean pred=%.1f m, attacked pred=%.1f m\n",
		sc.Distance, reg.Predict(sc.Img), reg.Predict(advImg))
	return nil
}
