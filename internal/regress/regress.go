// Package regress implements DistNet, the convolutional lead-vehicle
// distance regressor standing in for the relative-distance output of
// OpenPilot's Supercombo model. The network maps a rendered driving frame
// to a scalar distance in meters (trained on a normalised target so the
// output head stays well-conditioned across the 4–90 m range).
package regress

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Regressor is the DistNet model.
type Regressor struct {
	Net     *nn.Sequential
	Size    int     // input image side (pixels)
	MaxDist float64 // normalisation constant: output 1.0 == MaxDist meters

	seed     *tensor.Tensor // reusable backward seed for DistanceGrad
	seedB    *tensor.Tensor // reusable [N,1] backward seed for DistanceGradBatch
	batchBuf *tensor.Tensor // reusable [N,3,S,S] input pack for PredictBatch
	trainBuf *tensor.Tensor // reusable [B,3,S,S] input pack for TrainImages
	trainTgt *tensor.Tensor // reusable [B,1] gradient seed for TrainImages
}

// BatchSize is the frame count PredictBatch feeds the network per forward:
// large enough to amortise per-layer dispatch and keep the SIMD kernels
// busy, small enough that the batched workspaces stay cache-resident.
const BatchSize = 8

// ArchVersion identifies the DistNet architecture for serialized weight
// artifacts: any change to the layer stack or widths must bump it so
// stored weights from the old architecture are never loaded into the new
// one.
const ArchVersion = 1

// New builds a DistNet for size×size RGB inputs.
func New(rng *xrand.RNG, size int) *Regressor {
	if size%8 != 0 {
		panic(fmt.Sprintf("regress: size %d must be divisible by 8", size))
	}
	g := size / 8
	net := nn.NewSequential(
		nn.NewConv2D(rng, 3, 12, 3, 2, 1),
		nn.NewLeakyReLU(0.1),
		nn.NewConv2D(rng, 12, 24, 3, 2, 1),
		nn.NewLeakyReLU(0.1),
		nn.NewConv2D(rng, 24, 32, 3, 2, 1),
		nn.NewLeakyReLU(0.1),
		nn.NewFlatten(),
		nn.NewLinear(rng, 32*g*g, 48),
		nn.NewLeakyReLU(0.1),
		nn.NewLinear(rng, 48, 1),
	)
	return &Regressor{Net: net, Size: size, MaxDist: 100}
}

// Clone returns an independent copy for concurrent use.
func (r *Regressor) Clone() *Regressor {
	return &Regressor{Net: r.Net.Clone(), Size: r.Size, MaxDist: r.MaxDist}
}

// Predict returns the predicted distance in meters.
func (r *Regressor) Predict(img *imaging.Image) float64 {
	out := r.Net.Forward(img.Tensor(), false)
	return float64(out.Data()[0]) * r.MaxDist
}

// ForwardBatch packs the given frames into one [N,3,S,S] tensor and runs a
// single batched forward, returning the raw [N,1] prediction map (owned by
// the model workspace, valid until the next model call). Results are
// bit-identical per frame to Predict.
func (r *Regressor) ForwardBatch(imgs []*imaging.Image) *tensor.Tensor {
	n := len(imgs)
	if r.batchBuf == nil || !r.batchBuf.ShapeEq(n, 3, r.Size, r.Size) {
		r.batchBuf = tensor.New(n, 3, r.Size, r.Size)
	}
	sample := 3 * r.Size * r.Size
	bd := r.batchBuf.Data()
	for i, img := range imgs {
		if len(img.Pix) != sample {
			panic(fmt.Sprintf("regress: ForwardBatch frame %d has %d pixels, want %d", i, len(img.Pix), sample))
		}
		copy(bd[i*sample:(i+1)*sample], img.Pix)
	}
	return r.Net.Forward(r.batchBuf, false)
}

// PredictBatch predicts the distance of every frame, feeding the network
// BatchSize frames per forward pass. It is the throughput path for
// dataset-style evaluation; predictions are bit-identical to calling
// Predict per frame.
func (r *Regressor) PredictBatch(imgs []*imaging.Image) []float64 {
	return r.PredictBatchInto(make([]float64, len(imgs)), imgs)
}

// PredictBatchInto is PredictBatch writing into dst, which must have
// len(imgs) elements; it returns dst. A final short block is padded to
// BatchSize by repeating the last frame (padding outputs are discarded):
// per-frame results are independent and bit-identical at any batch size,
// and the constant shape keeps the batched workspaces from reallocating
// between the tail and the next full block on every call.
func (r *Regressor) PredictBatchInto(dst []float64, imgs []*imaging.Image) []float64 {
	if len(dst) != len(imgs) {
		panic(fmt.Sprintf("regress: PredictBatchInto dst %d vs %d frames", len(dst), len(imgs)))
	}
	var padded [BatchSize]*imaging.Image
	for lo := 0; lo < len(imgs); lo += BatchSize {
		hi := lo + BatchSize
		block := imgs[lo:]
		if hi > len(imgs) {
			hi = len(imgs)
			n := copy(padded[:], imgs[lo:])
			for i := n; i < BatchSize; i++ {
				padded[i] = imgs[len(imgs)-1]
			}
			block = padded[:]
		} else {
			block = imgs[lo:hi]
		}
		out := r.ForwardBatch(block).Data()
		for i := 0; i < hi-lo; i++ {
			dst[lo+i] = float64(out[i]) * r.MaxDist
		}
	}
	return dst
}

// DistanceGrad returns the gradient of the predicted distance with respect
// to the input pixels — the primitive the regression attacks ascend to push
// the prediction toward larger (or smaller) distances. Only the input
// gradient is computed (BackwardInput): attacks never read parameter
// gradients, so the weight-gradient GEMMs of a full backward are skipped.
func (r *Regressor) DistanceGrad(img *imaging.Image) (pred float64, grad *tensor.Tensor) {
	out := r.Net.Forward(img.Tensor(), false)
	pred = float64(out.Data()[0]) * r.MaxDist
	if r.seed == nil {
		r.seed = tensor.New(1)
	}
	r.seed.Data()[0] = 1 // d(pred_norm)/d(out) = 1
	grad = r.Net.BackwardInput(r.seed)
	return pred, grad
}

// DistanceGradBatch is DistanceGrad over a whole block of frames: one
// batched forward and one batched input-gradient backward — two GEMM-shaped
// passes — instead of N per-frame pairs. preds must have len(imgs)
// elements and receives the predicted distances in meters; the returned
// [N,3,S,S] gradient is owned by the model workspace and valid until the
// model's next call. Per-frame predictions and gradients are bit-identical
// to DistanceGrad.
func (r *Regressor) DistanceGradBatch(preds []float64, imgs []*imaging.Image) *tensor.Tensor {
	if len(preds) != len(imgs) {
		panic(fmt.Sprintf("regress: DistanceGradBatch preds %d vs %d frames", len(preds), len(imgs)))
	}
	out := r.ForwardBatch(imgs)
	n := len(imgs)
	for i := 0; i < n; i++ {
		preds[i] = float64(out.Data()[i]) * r.MaxDist
	}
	if r.seedB == nil || !r.seedB.ShapeEq(n, 1) {
		r.seedB = tensor.New(n, 1)
	}
	r.seedB.Fill(1)
	return r.Net.BackwardInput(r.seedB)
}

// TrainConfig controls regressor training.
type TrainConfig struct {
	Epochs int
	Batch  int
	LR     float32
	Seed   int64
	Logf   func(format string, args ...any)
}

// DefaultTrainConfig returns settings that fit DistNet to a few meters of
// RMS error over the synthetic driving distribution.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, Batch: 16, LR: 2e-3, Seed: 2}
}

// Train fits the regressor on a driving set and returns final epoch loss
// (MSE in normalised units).
func (r *Regressor) Train(set *dataset.DriveSet, cfg TrainConfig) float64 {
	imgs := make([]*imaging.Image, set.Len())
	dists := make([]float64, set.Len())
	for i, sc := range set.Scenes {
		imgs[i] = sc.Img
		dists[i] = sc.Distance
	}
	return r.TrainImages(imgs, dists, cfg)
}

// TrainImages fits on explicit image/distance pairs (the adversarial-
// training defense passes perturbed frames). Each mini-batch runs as one
// batched forward and one batched backward — two GEMM-shaped passes —
// instead of per-sample loops; per-sample losses and gradient seeds match
// the old per-sample MSE exactly, with parameter gradients accumulating
// across the batch in one pass (float-rounding-level difference only).
func (r *Regressor) TrainImages(imgs []*imaging.Image, dists []float64, cfg TrainConfig) float64 {
	rng := xrand.New(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	idx := make([]int, len(imgs))
	for i := range idx {
		idx[i] = i
	}
	sample := 3 * r.Size * r.Size
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss = 0
		for _, batch := range dataset.Batches(len(idx), cfg.Batch) {
			nb := len(batch)
			// Pack buffers live at full cfg.Batch capacity; a short tail
			// batch is a view, so the epoch boundary never reallocates.
			if r.trainBuf == nil || r.trainBuf.Len() < cfg.Batch*sample {
				r.trainBuf = tensor.New(cfg.Batch, 3, r.Size, r.Size)
				r.trainTgt = tensor.New(cfg.Batch, 1)
			}
			in, tgt := r.trainBuf, r.trainTgt
			if nb != in.Dim(0) {
				in = tensor.FromSlice(in.Data()[:nb*sample], nb, 3, r.Size, r.Size)
				tgt = tensor.FromSlice(tgt.Data()[:nb], nb, 1)
			}
			bd := in.Data()
			for bi, b := range batch {
				copy(bd[bi*sample:(bi+1)*sample], imgs[idx[b]].Pix)
			}
			r.Net.ZeroGrad()
			out := r.Net.Forward(in, true)
			// Per-sample MSE on the single normalised output: loss 0.5·d²
			// and gradient seed d, exactly the old per-sample values.
			sd := tgt.Data()
			for bi, b := range batch {
				d := out.Data()[bi] - float32(dists[idx[b]]/r.MaxDist)
				epochLoss += 0.5 * float64(d) * float64(d)
				sd[bi] = d
			}
			r.Net.Backward(tgt)
			scaleGrads(r.Net.Params(), 1/float32(nb))
			nn.ClipGradNorm(r.Net.Params(), 10)
			opt.Step(r.Net.Params())
		}
		epochLoss /= float64(len(imgs))
		if cfg.Logf != nil {
			cfg.Logf("regress: epoch %d/%d loss %.6f", epoch+1, cfg.Epochs, epochLoss)
		}
	}
	return epochLoss
}

// RMSE returns the root-mean-square prediction error in meters over a set,
// evaluated through the batched forward path.
func (r *Regressor) RMSE(set *dataset.DriveSet) float64 {
	imgs := make([]*imaging.Image, set.Len())
	for i, sc := range set.Scenes {
		imgs[i] = sc.Img
	}
	preds := r.PredictBatch(imgs)
	var sq float64
	for i, sc := range set.Scenes {
		d := preds[i] - sc.Distance
		sq += d * d
	}
	return math.Sqrt(sq / float64(set.Len()))
}

func scaleGrads(params []*nn.Param, s float32) {
	for _, p := range params {
		p.Grad.ScaleInPlace(s)
	}
}
