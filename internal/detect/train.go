package detect

import (
	"math"

	"repro/internal/box"
	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/scene"
	"repro/internal/xrand"
)

func log1p(x float64) float64 { return math.Log1p(x) }
func exp(x float64) float64   { return math.Exp(x) }

// Box aliases box.Box so callers of the detect API do not need a separate
// import for ground-truth plumbing.
type Box = box.Box

// gtBoxes extracts the ground-truth box list of a scene (empty for
// negative scenes).
func gtBoxes(sc scene.SignScene) []Box {
	if !sc.HasSign {
		return nil
	}
	return []Box{sc.Box}
}

// GTBoxes exposes gtBoxes for the attack and defense packages.
func GTBoxes(sc scene.SignScene) []Box { return gtBoxes(sc) }

// The detector's one-step learning-rate schedule: from epoch
// int(decayAt·Epochs) on, training runs at decayFactor·LR.
const (
	decayAt     = 0.6
	decayFactor = 0.3
)

// DefaultTrainConfig returns settings that train TinyDet to high clean
// accuracy on the synthetic stop-sign distribution.
func DefaultTrainConfig() nn.TrainConfig {
	return nn.TrainConfig{Epochs: 30, Batch: 16, LR: 3e-3, Seed: 1}
}

// Train fits the detector on the sign set. Each epoch shuffles the data
// and runs each mini-batch as one batched forward and one batched backward
// (two GEMM-shaped passes) before applying an Adam step. It returns the
// final mean epoch loss.
func (d *Detector) Train(set *dataset.SignSet, cfg nn.TrainConfig) float64 {
	imgs := make([]*imaging.Image, set.Len())
	gts := make([][]Box, set.Len())
	for i, sc := range set.Scenes {
		imgs[i] = sc.Img
		gts[i] = gtBoxes(sc)
	}
	return d.TrainImages(imgs, gts, cfg)
}

// TrainImages fits the detector on explicit image/ground-truth pairs and
// returns the final mean epoch loss; adversarial training runs it on a
// Clone of the base detector with perturbed images. Each mini-batch is one
// batched forward and one batched backward, whose parameter gradients
// accumulate across the batch in one pass.
func (d *Detector) TrainImages(imgs []*imaging.Image, gts [][]Box, cfg nn.TrainConfig) float64 {
	rng := xrand.New(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	idx := make([]int, len(imgs))
	for i := range idx {
		idx[i] = i
	}
	decayEpoch := int(decayAt * float64(cfg.Epochs))
	var (
		batchImgs = make([]*imaging.Image, 0, cfg.Batch)
		batchGTs  = make([][]Box, 0, cfg.Batch)
		losses    = make([]float64, cfg.Batch)
		sum, loss float64
	)
	nn.Epochs(rng, idx, cfg.Epochs, cfg.Batch, func(epoch int, b []int) {
		if epoch >= decayEpoch {
			opt.LR = cfg.LR * decayFactor
		}
		batchImgs, batchGTs = batchImgs[:0], batchGTs[:0]
		for _, k := range b {
			batchImgs = append(batchImgs, imgs[k])
			batchGTs = append(batchGTs, gts[k])
		}
		opt.TrainStep(d.Net.Params(), func() int {
			d.batchBuf = imaging.PackInto(d.batchBuf, batchImgs, d.Size)
			raw := d.Net.Forward(d.batchBuf, true)
			grad := d.LossGradBatch(losses[:len(b)], raw, batchGTs)
			for _, l := range losses[:len(b)] {
				sum += l
			}
			d.Net.Backward(grad)
			return len(b)
		})
	}, func(epoch int) {
		loss, sum = sum/float64(len(imgs)), 0
		if cfg.Logf != nil {
			cfg.Logf("detect: epoch %d/%d loss %.5f", epoch+1, cfg.Epochs, loss)
		}
	})
	return loss
}

// Evaluate runs the detector over a set and returns the paper's three
// detection metrics at the given confidence threshold. Frames run through
// the batched forward path (bit-identical to per-frame detection).
func (d *Detector) Evaluate(set *dataset.SignSet, scoreThresh float64) metrics.DetectionScores {
	imgs := make([]*imaging.Image, set.Len())
	for i, sc := range set.Scenes {
		imgs[i] = sc.Img
	}
	dets := d.DetectBatch(imgs, 0.05) // low floor so AP sweep sees the full curve
	evals := make([]metrics.ImageEval, set.Len())
	for i, sc := range set.Scenes {
		evals[i] = metrics.ImageEval{Dets: dets[i], GT: gtBoxes(sc)}
	}
	return metrics.EvalDetections(evals, scoreThresh)
}

// EvaluateImages evaluates on explicit image/GT pairs (used when images
// have been attacked or defended), batching frames through the detector.
func (d *Detector) EvaluateImages(imgs []*imaging.Image, gts [][]Box, scoreThresh float64) metrics.DetectionScores {
	dets := d.DetectBatch(imgs, 0.05)
	evals := make([]metrics.ImageEval, len(imgs))
	for i := range imgs {
		evals[i] = metrics.ImageEval{Dets: dets[i], GT: gts[i]}
	}
	return metrics.EvalDetections(evals, scoreThresh)
}
