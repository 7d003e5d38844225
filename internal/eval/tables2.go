package eval

import (
	"repro/internal/defense"
	"repro/internal/detect"
	"repro/internal/imaging"
	"repro/internal/metrics"
	"repro/internal/regress"
	"repro/internal/xrand"
)

// MixedKind labels the paper's mixed adversarial train/test sets.
const MixedKind Kind = "Mixed"

// advTrainSources are the Table III training-set sources, in paper order.
var advTrainSources = []Kind{KindGaussian, KindFGSM, KindAPGD, KindCAP, MixedKind}

// TableIIICell is one (training source, test attack) evaluation.
type TableIIICell struct {
	TrainOn Kind
	TestOn  Kind
	HasReg  bool // the paper reports "-" for regression under the Mixed test set
	Errs    RangeErrs
	Scores  metrics.DetectionScores
}

// TableIII reproduces "Performance after adversarial training": the
// transfer matrix of models hardened on one attack (or the mixed set) and
// tested on the others.
type TableIII struct {
	Cells []TableIIICell
}

// advSets holds the per-attack adversarial copies of a split.
type advSets struct {
	signImgs  map[Kind][]*imaging.Image
	signGTs   [][]detect.Box
	driveImgs map[Kind][]*imaging.Image
	driveDist []float64
}

// buildAdvTrainSets attacks the training splits once per source attack
// (adversarial examples are generated against the base models, as in the
// paper's non-adaptive transfer protocol).
func (e *Env) buildAdvTrainSets(kinds []Kind) advSets {
	s := advSets{
		signImgs:  make(map[Kind][]*imaging.Image),
		driveImgs: make(map[Kind][]*imaging.Image),
	}
	s.signGTs = make([][]detect.Box, e.SignTrainSet.Len())
	for i, sc := range e.SignTrainSet.Scenes {
		s.signGTs[i] = detect.GTBoxes(sc)
	}
	s.driveDist = make([]float64, e.DriveTrain.Len())
	for i, sc := range e.DriveTrain.Scenes {
		s.driveDist[i] = sc.Distance
	}
	for _, k := range kinds {
		if k == MixedKind {
			continue
		}
		e.logf("adv-train sets: generating %s", k)
		s.signImgs[k] = e.AttackSignSet(e.Det, e.SignTrainSet, pairedDetKind(k), e.Preset.Seed+400)
		s.driveImgs[k] = e.AttackDriveSet(e.Reg, e.DriveTrain, k, e.Preset.Seed+401)
	}
	return s
}

// mixKinds are the four sources pooled into the mixed set.
var mixKinds = []Kind{KindGaussian, KindFGSM, KindAPGD, KindCAP}

// mixedSign draws frac of each source's attacked sign images.
func (s advSets) mixedSign(rng *xrand.RNG, frac float64) ([]*imaging.Image, [][]detect.Box) {
	var sets [][]*imaging.Image
	var labels [][][]detect.Box
	for _, k := range mixKinds {
		sets = append(sets, s.signImgs[k])
		labels = append(labels, s.signGTs)
	}
	return defense.MixSets(rng, frac, sets, labels)
}

// mixedDrive draws frac of each source's attacked driving frames.
func (s advSets) mixedDrive(rng *xrand.RNG, frac float64) ([]*imaging.Image, []float64) {
	var sets [][]*imaging.Image
	var dists [][]float64
	for _, k := range mixKinds {
		sets = append(sets, s.driveImgs[k])
		dists = append(dists, s.driveDist)
	}
	return defense.MixDriveSets(rng, frac, sets, dists)
}

// RunTableIII builds adversarial training sets, hardens one detector and
// one regressor per source, and evaluates each hardened pair on the other
// attacks' test-set adversarial examples.
func (e *Env) RunTableIII() TableIII {
	train := e.buildAdvTrainSets(advTrainSources)

	// Test-set adversarial examples, generated once against the base models.
	testSign := make(map[Kind][]*imaging.Image)
	testDrive := make(map[Kind][]*imaging.Image)
	for _, k := range mixKinds {
		testSign[k] = e.AttackSignSet(e.Det, e.SignTestSet, pairedDetKind(k), e.Preset.Seed+402)
		testDrive[k] = e.AttackDriveSet(e.Reg, e.DriveTest, k, e.Preset.Seed+403)
	}
	// Mixed test set (detection only, as the paper reports).
	rng := xrand.New(e.Preset.Seed + 404)
	mixedTestSign := make([]*imaging.Image, e.SignTestSet.Len())
	for i := range mixedTestSign {
		mixedTestSign[i] = testSign[mixKinds[rng.Intn(len(mixKinds))]][i]
	}

	var t TableIII
	for _, src := range advTrainSources {
		e.logf("table III: hardening on %s", src)
		det, reg := e.hardenOn(src, train)

		tests := make([]Kind, 0, 5)
		for _, k := range mixKinds {
			if k != src {
				tests = append(tests, k)
			}
		}
		tests = append(tests, MixedKind)

		for _, tk := range tests {
			cell := TableIIICell{TrainOn: src, TestOn: tk}
			if tk == MixedKind {
				cell.Scores = detScoresFrom(det, e, mixedTestSign, nil)
			} else {
				cell.HasReg = true
				cell.Errs = rangeErrsFrom(reg, e, testDrive[tk], nil)
				cell.Scores = detScoresFrom(det, e, testSign[tk], nil)
			}
			t.Cells = append(t.Cells, cell)
		}
	}
	return t
}

// hardenOn fine-tunes base models on one source's adversarial training set.
func (e *Env) hardenOn(src Kind, train advSets) (*detect.Detector, *regress.Regressor) {
	dcfg := detect.DefaultTrainConfig()
	dcfg.Epochs = e.Preset.AdvEpochs
	dcfg.Seed = e.Preset.Seed + 500
	dcfg.LR = 1e-3 // fine-tuning rate

	rcfg := regress.DefaultTrainConfig()
	rcfg.Epochs = e.Preset.AdvEpochs
	rcfg.Seed = e.Preset.Seed + 501
	rcfg.LR = 1e-3

	rng := xrand.New(e.Preset.Seed + 502)
	if src == MixedKind {
		signImgs, signGTs := train.mixedSign(rng, 0.25)
		driveImgs, driveDists := train.mixedDrive(rng, 0.25)
		det, reg := e.Det.Clone(), e.Reg.Clone()
		det.TrainImages(signImgs, signGTs, dcfg)
		reg.TrainImages(driveImgs, driveDists, rcfg)
		return det, reg
	}
	det, reg := e.Det.Clone(), e.Reg.Clone()
	det.TrainImages(train.signImgs[src], train.signGTs, dcfg)
	reg.TrainImages(train.driveImgs[src], train.driveDist, rcfg)
	return det, reg
}

// contrastiveSources are the Table IV adversarial-example sets.
var contrastiveSources = []Kind{KindGaussian, KindFGSM, KindAPGD, KindRP2, KindSimBA}

// TableIVCell is one (adversarial example set, test attack) evaluation of
// the contrastive-learning detector.
type TableIVCell struct {
	TrainOn Kind
	TestOn  Kind // KindNone = clean
	Scores  metrics.DetectionScores
}

// TableIV reproduces "Performance after contrastive learning".
type TableIV struct {
	Cells []TableIVCell
}

// RunTableIV fine-tunes the detector backbone contrastively on each
// attack's adversarial training images (views of the same scene must map
// to nearby embeddings) and evaluates on clean plus the other attacks.
func (e *Env) RunTableIV() TableIV {
	// Adversarial training images per source (against the base detector).
	advTrain := make(map[Kind][]*imaging.Image)
	for _, k := range contrastiveSources {
		e.logf("table IV: generating %s training examples", k)
		advTrain[k] = e.AttackSignSet(e.Det, e.SignTrainSet, k, e.Preset.Seed+600)
	}
	// Test adversarial examples per attack (against the base detector).
	testSign := make(map[Kind][]*imaging.Image)
	for _, k := range contrastiveSources {
		testSign[k] = e.AttackSignSet(e.Det, e.SignTestSet, k, e.Preset.Seed+601)
	}
	testSign[KindNone] = e.AttackSignSet(e.Det, e.SignTestSet, KindNone, 0)

	var t TableIV
	for _, src := range contrastiveSources {
		e.logf("table IV: contrastive fine-tuning on %s", src)
		ccfg := defense.DefaultContrastiveConfig()
		ccfg.Epochs = e.Preset.ContrastiveEpochs
		ccfg.Seed = e.Preset.Seed + 602

		// Wrap the adversarial images into a sign set sharing the clean
		// labels, so the head refit sees the same ground truth.
		advSet := e.SignTrainSet.WithImages(advTrain[src])
		det := defense.ContrastiveFineTune(e.Det, advSet, ccfg)

		tests := []Kind{KindNone}
		for _, k := range contrastiveSources {
			if k != src {
				tests = append(tests, k)
			}
		}
		for _, tk := range tests {
			t.Cells = append(t.Cells, TableIVCell{
				TrainOn: src,
				TestOn:  tk,
				Scores:  detScoresFrom(det, e, testSign[tk], nil),
			})
		}
	}
	return t
}

// TableVRow is one attack's post-restoration evaluation.
type TableVRow struct {
	Attack Kind
	HasReg bool // SimBA is detection-only in the paper
	Errs   RangeErrs
	Scores metrics.DetectionScores
}

// TableV reproduces "Performance after diffusion model cleaning".
type TableV struct {
	Rows []TableVRow
}

// RunTableV restores each attack's outputs with DiffPIR before inference.
func (e *Env) RunTableV() TableV {
	prep := e.DiffPIR()
	var t TableV
	kinds := []Kind{KindGaussian, KindFGSM, KindAPGD, KindCAP, KindSimBA}
	for _, kind := range kinds {
		e.logf("table V: attacking with %s", kind)
		row := TableVRow{Attack: kind}
		if kind != KindSimBA {
			row.HasReg = true
			attackedDrive := e.AttackDriveSet(e.Reg, e.DriveTest, kind, e.Preset.Seed+700)
			row.Errs = rangeErrsFrom(e.Reg, e, attackedDrive, blockDiffPIR(prep))
		}
		attackedSign := e.AttackSignSet(e.Det, e.SignTestSet, pairedDetKind(kind), e.Preset.Seed+701)
		row.Scores = detScoresFrom(e.Det, e, attackedSign, blockDiffPIR(prep))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// blockDiffPIR gives every worker block its own clone of the DiffPIR
// model, so the stateful UNet scratch is never shared across workers.
// Restoration reseeds per image, so the clone changes no number.
func blockDiffPIR(p *defense.DiffPIRDefense) blockPrep {
	return func(int) defense.Preprocessor {
		return &defense.DiffPIRDefense{Model: p.Model.Clone(), Cfg: p.Cfg}
	}
}
