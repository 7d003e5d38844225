// Package detect implements TinyDet, the single-class grid detector that
// stands in for the paper's single-class YOLOv8 stop-sign model. The
// detector divides the image into an G×G grid; each cell predicts an
// objectness logit and a box (center offset within the cell plus width and
// height as fractions of the image). Decoding applies a confidence
// threshold and non-maximum suppression.
package detect

import (
	"fmt"

	"repro/internal/box"
	"repro/internal/imaging"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Output channel layout per grid cell.
const (
	chObj = 0 // objectness logit
	chTX  = 1 // center x offset within cell, target in [0,1]
	chTY  = 2 // center y offset within cell, target in [0,1]
	chTW  = 3 // box width / image size
	chTH  = 4 // box height / image size

	numCh = 5
)

// Loss balancing: one positive cell vs ~63 background cells.
const (
	wPositiveObj = 5.0
	wNegativeObj = 0.6
	wBox         = 14.0
)

// Detector is the TinyDet model.
type Detector struct {
	Net  *nn.Sequential
	Size int // input image side (pixels)
	Grid int // grid side (cells)

	batchBuf *tensor.Tensor // reusable [N,3,S,S] input pack for ForwardBatch

	// Reusable loss scratch: LossGrad/TrainLoss encode targets and build
	// the raw-map gradient into these, so steady-state attack and training
	// loops never touch the allocator. The tensors follow the workspace
	// retention rule: a returned gradient is valid until the next
	// LossGrad/TrainLoss call on this detector.
	lossTarget *tensor.Tensor
	lossWeight *tensor.Tensor
	lossGrad   *tensor.Tensor
	lossGradB  *tensor.Tensor // [N,5,G,G] raw-map gradient for the batched loss
}

// BatchSize is the frame count DetectBatch feeds the network per forward,
// sized like regress.BatchSize to keep the batched workspaces in cache.
const BatchSize = 8

// ArchVersion identifies the TinyDet architecture for serialized weight
// artifacts: any change to the layer stack, channel widths or output
// layout must bump it so stored weights from the old architecture are
// never loaded into the new one.
const ArchVersion = 1

// New builds a TinyDet for size×size RGB inputs. The backbone is three
// stride-2 convolutions (size/8 grid) followed by a 1×1 prediction head.
func New(rng *xrand.RNG, size int) *Detector {
	if size%8 != 0 {
		panic(fmt.Sprintf("detect: size %d must be divisible by 8", size))
	}
	net := nn.NewSequential(
		nn.NewConv2D(rng, 3, 12, 3, 2, 1),
		nn.NewLeakyReLU(0.1),
		nn.NewConv2D(rng, 12, 24, 3, 2, 1),
		nn.NewLeakyReLU(0.1),
		nn.NewConv2D(rng, 24, 48, 3, 2, 1),
		nn.NewLeakyReLU(0.1),
		nn.NewConv2D(rng, 48, 48, 3, 1, 1), // grid-level context: widen the
		nn.NewLeakyReLU(0.1),               // receptive field beyond one cell
		nn.NewConv2D(rng, 48, numCh, 3, 1, 1),
	)
	return &Detector{Net: net, Size: size, Grid: size / 8}
}

// Clone returns an independent copy for concurrent use.
func (d *Detector) Clone() *Detector {
	return &Detector{Net: d.Net.Clone(), Size: d.Size, Grid: d.Grid}
}

// Forward runs the network, returning the raw (5,G,G) prediction map.
func (d *Detector) Forward(img *imaging.Image) *tensor.Tensor {
	return d.Net.Forward(img.Tensor(), false)
}

// ForwardBatch packs the given frames into one [N,3,S,S] tensor and runs a
// single batched forward, returning the raw [N,5,G,G] prediction maps
// (owned by the model workspace, valid until the next model call). Results
// are bit-identical per frame to Forward.
func (d *Detector) ForwardBatch(imgs []*imaging.Image) *tensor.Tensor {
	n := len(imgs)
	if d.batchBuf == nil || !d.batchBuf.ShapeEq(n, 3, d.Size, d.Size) {
		d.batchBuf = tensor.New(n, 3, d.Size, d.Size)
	}
	sample := 3 * d.Size * d.Size
	bd := d.batchBuf.Data()
	for i, img := range imgs {
		if len(img.Pix) != sample {
			panic(fmt.Sprintf("detect: ForwardBatch frame %d has %d pixels, want %d", i, len(img.Pix), sample))
		}
		copy(bd[i*sample:(i+1)*sample], img.Pix)
	}
	return d.Net.Forward(d.batchBuf, false)
}

// Detect runs the detector and decodes boxes with the given confidence
// threshold, applying NMS at IoU 0.45.
func (d *Detector) Detect(img *imaging.Image, minScore float64) []metrics.Detection {
	raw := d.Forward(img)
	return d.Decode(raw, minScore)
}

// DetectBatch detects over every frame, feeding the network BatchSize
// frames per forward pass and decoding each sample's map. The decoded
// boxes are identical to per-frame Detect calls. A final short block is
// padded to BatchSize by repeating the last frame (padding outputs are
// discarded), so the batched workspaces keep one shape across calls
// instead of reallocating between the tail and the next full block.
func (d *Detector) DetectBatch(imgs []*imaging.Image, minScore float64) [][]metrics.Detection {
	out := make([][]metrics.Detection, len(imgs))
	plane := numCh * d.Grid * d.Grid
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
		raw := d.ForwardBatch(block)
		for i := 0; i < hi-lo; i++ {
			view := tensor.FromSlice(raw.Data()[i*plane:(i+1)*plane], numCh, d.Grid, d.Grid)
			out[lo+i] = d.Decode(view, minScore)
		}
	}
	return out
}

// Decode converts a raw prediction map into scored, NMS-filtered boxes.
func (d *Detector) Decode(raw *tensor.Tensor, minScore float64) []metrics.Detection {
	g := d.Grid
	cell := float64(d.Size) / float64(g)
	var dets []metrics.Detection
	for gy := 0; gy < g; gy++ {
		for gx := 0; gx < g; gx++ {
			score := float64(nn.SigmoidScalar(raw.At(chObj, gy, gx)))
			if score < minScore {
				continue
			}
			tx := clampF(raw.At(chTX, gy, gx), 0, 1)
			ty := clampF(raw.At(chTY, gy, gx), 0, 1)
			tw := clampF(raw.At(chTW, gy, gx), 0.01, 1)
			th := clampF(raw.At(chTH, gy, gx), 0.01, 1)
			cx := (float64(gx) + float64(tx)) * cell
			cy := (float64(gy) + float64(ty)) * cell
			w := float64(tw) * float64(d.Size)
			h := float64(th) * float64(d.Size)
			dets = append(dets, metrics.Detection{
				Box:   box.FromCenter(cx, cy, w, h).Clip(float64(d.Size), float64(d.Size)),
				Score: score,
			})
		}
	}
	return NMS(dets, 0.45)
}

// NMS performs greedy non-maximum suppression at the given IoU threshold.
func NMS(dets []metrics.Detection, iouThresh float64) []metrics.Detection {
	// Sort by score descending (insertion sort: lists are short).
	for i := 1; i < len(dets); i++ {
		for j := i; j > 0 && dets[j].Score > dets[j-1].Score; j-- {
			dets[j], dets[j-1] = dets[j-1], dets[j]
		}
	}
	var keep []metrics.Detection
	suppressed := make([]bool, len(dets))
	for i := range dets {
		if suppressed[i] {
			continue
		}
		keep = append(keep, dets[i])
		for j := i + 1; j < len(dets); j++ {
			if !suppressed[j] && dets[i].Box.IoU(dets[j].Box) > iouThresh {
				suppressed[j] = true
			}
		}
	}
	return keep
}

// Targets encodes ground-truth boxes into the (5,G,G) target map and the
// per-element loss weights, as fresh tensors the caller owns.
func (d *Detector) Targets(gt []box.Box) (target, weight *tensor.Tensor) {
	g := d.Grid
	target = tensor.New(numCh, g, g)
	weight = tensor.New(numCh, g, g)
	d.targetsInto(target, weight, gt)
	return target, weight
}

// targetsInto encodes ground truth into caller-held (5,G,G) tensors,
// overwriting their previous contents — the allocation-free body of
// Targets that LossGrad's scratch path reuses every call. Elements are
// addressed through the raw storage (variadic Set escapes its index
// slice, which would put ~G² allocations on the attack hot path).
func (d *Detector) targetsInto(target, weight *tensor.Tensor, gt []box.Box) {
	g := d.Grid
	plane := g * g
	cell := float64(d.Size) / float64(g)
	target.Zero()
	weight.Zero()
	tD := target.Data()
	wD := weight.Data()
	// Background objectness weight everywhere, overwritten at positives.
	objPlane := wD[chObj*plane : (chObj+1)*plane]
	for i := range objPlane {
		objPlane[i] = wNegativeObj
	}
	for _, b := range gt {
		if b.Empty() {
			continue
		}
		gx := int(b.CX() / cell)
		gy := int(b.CY() / cell)
		if gx < 0 || gx >= g || gy < 0 || gy >= g {
			continue
		}
		at := gy*g + gx
		tD[chObj*plane+at] = 1
		wD[chObj*plane+at] = wPositiveObj
		tD[chTX*plane+at] = float32(b.CX()/cell - float64(gx))
		tD[chTY*plane+at] = float32(b.CY()/cell - float64(gy))
		tD[chTW*plane+at] = float32(b.W() / float64(d.Size))
		tD[chTH*plane+at] = float32(b.H() / float64(d.Size))
		for c := chTX; c <= chTH; c++ {
			wD[c*plane+at] = wBox
		}
	}
}

// LossGrad computes the detection loss of a raw prediction map against
// ground truth, returning the loss and its gradient w.r.t. the raw map.
// The objectness channel uses weighted BCE on logits; box channels use
// weighted MSE restricted to positive cells. Targets and gradient live in
// reusable detector scratch, so steady-state calls allocate nothing; the
// returned gradient is valid until the next LossGrad/TrainLoss call.
func (d *Detector) LossGrad(raw *tensor.Tensor, gt []box.Box) (float64, *tensor.Tensor) {
	g := d.Grid
	if d.lossTarget == nil || !d.lossTarget.ShapeEq(numCh, g, g) {
		d.lossTarget = tensor.New(numCh, g, g)
		d.lossWeight = tensor.New(numCh, g, g)
	}
	d.targetsInto(d.lossTarget, d.lossWeight, gt)
	return d.lossWithTargets(raw, d.lossTarget, d.lossWeight)
}

func (d *Detector) lossWithTargets(raw, target, weight *tensor.Tensor) (float64, *tensor.Tensor) {
	g := d.Grid
	if d.lossGrad == nil || !d.lossGrad.ShapeEq(numCh, g, g) {
		d.lossGrad = tensor.New(numCh, g, g)
	}
	loss := d.lossInto(d.lossGrad.Data(), raw.Data(), target.Data(), weight.Data())
	return loss, d.lossGrad
}

// lossInto computes one sample's detection loss and writes its raw-map
// gradient into gD (fully overwritten) — the slice-level body both the
// per-sample and batched loss paths share.
func (d *Detector) lossInto(gD, rawD, tD, wD []float32) float64 {
	plane := d.Grid * d.Grid
	clear(gD[:numCh*plane])
	n := float64(plane) // normalise per-cell so loss scale is grid-independent

	var loss float64
	// Objectness: weighted BCE with logits.
	for i := 0; i < plane; i++ {
		w := float64(wD[i])
		if w == 0 {
			continue
		}
		z := float64(rawD[i])
		t := float64(tD[i])
		loss += w * (maxF64(z, 0) - z*t + log1pExpNegAbs(z))
		gD[i] = float32(w * (float64(nn.SigmoidScalar(rawD[i])) - t) / n)
	}
	// Box channels: weighted MSE.
	for i := plane; i < numCh*plane; i++ {
		w := float64(wD[i])
		if w == 0 {
			continue
		}
		diff := float64(rawD[i] - tD[i])
		loss += 0.5 * w * diff * diff
		gD[i] = float32(w * diff / n)
	}
	return loss / n
}

// LossGradBatch computes the detection loss of every sample in a batched
// [N,5,G,G] prediction map against per-sample ground truth, writing
// per-sample losses into losses and returning the [N,5,G,G] gradient
// (detector-owned scratch, valid until the next loss call). Per-sample
// losses and gradients are bit-identical to LossGrad.
func (d *Detector) LossGradBatch(losses []float64, raw *tensor.Tensor, gts [][]Box) *tensor.Tensor {
	g := d.Grid
	n := len(gts)
	if raw.Len() != n*numCh*g*g || len(losses) != n {
		panic(fmt.Sprintf("detect: LossGradBatch raw %v / %d losses vs %d samples", raw.Shape(), len(losses), n))
	}
	if d.lossTarget == nil || !d.lossTarget.ShapeEq(numCh, g, g) {
		d.lossTarget = tensor.New(numCh, g, g)
		d.lossWeight = tensor.New(numCh, g, g)
	}
	if d.lossGradB == nil || !d.lossGradB.ShapeEq(n, numCh, g, g) {
		d.lossGradB = tensor.New(n, numCh, g, g)
	}
	plane5 := numCh * g * g
	rawD := raw.Data()
	gD := d.lossGradB.Data()
	for i, gt := range gts {
		d.targetsInto(d.lossTarget, d.lossWeight, gt)
		losses[i] = d.lossInto(gD[i*plane5:(i+1)*plane5], rawD[i*plane5:(i+1)*plane5],
			d.lossTarget.Data(), d.lossWeight.Data())
	}
	return d.lossGradB
}

// TrainLoss runs a forward pass and returns loss and input gradient; it is
// the primitive white-box attacks use (∇x of the training loss). Only the
// input gradient is computed (BackwardInput): attacks never read parameter
// gradients, so the weight-gradient GEMMs of a full backward are skipped.
func (d *Detector) TrainLoss(img *imaging.Image, gt []box.Box) (float64, *tensor.Tensor) {
	raw := d.Net.Forward(img.Tensor(), false)
	loss, grad := d.LossGrad(raw, gt)
	return loss, d.Net.BackwardInput(grad)
}

// TrainLossBatch is TrainLoss over a whole block of frames: one batched
// forward and one batched input-gradient backward — two GEMM-shaped passes
// — instead of N per-frame pairs. losses must have len(imgs) elements;
// gts holds one ground-truth list per frame. The returned [N,3,S,S] pixel
// gradient is owned by the model workspace and valid until the model's
// next call. Per-frame losses and gradients are bit-identical to TrainLoss.
func (d *Detector) TrainLossBatch(losses []float64, imgs []*imaging.Image, gts [][]Box) *tensor.Tensor {
	if len(losses) != len(imgs) || len(gts) != len(imgs) {
		panic(fmt.Sprintf("detect: TrainLossBatch %d losses / %d gts vs %d frames", len(losses), len(gts), len(imgs)))
	}
	raw := d.ForwardBatch(imgs)
	grad := d.LossGradBatch(losses, raw, gts)
	return d.Net.BackwardInput(grad)
}

// MaxObjectness returns the maximum post-sigmoid objectness over the grid,
// the scalar "sign present" confidence that SimBA queries.
func (d *Detector) MaxObjectness(img *imaging.Image) float64 {
	raw := d.Forward(img)
	plane := d.Grid * d.Grid
	best := raw.Data()[0]
	for _, v := range raw.Data()[1:plane] {
		if v > best {
			best = v
		}
	}
	return float64(nn.SigmoidScalar(best))
}

func clampF(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// log1pExpNegAbs computes log(1+exp(-|z|)) stably.
func log1pExpNegAbs(z float64) float64 {
	if z < 0 {
		z = -z
	}
	// For large z, exp(-z) underflows harmlessly to 0.
	return log1p(exp(-z))
}
