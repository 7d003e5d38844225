package nn

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Conv2D is a 2-D convolution implemented with an im2row lowering so the
// inner loop is a single k-major SIMD matrix multiply. Single CHW samples
// and [N,C,H,W] batches run the same unified kernel path — one patch-major
// lowering and k-major GEMM (tensor.Im2RowMatMulInto, row-sharded across
// cores together on large inputs), one fused permute+bias pass —
// so the single-frame forward enjoys the same SIMD throughput as batched
// inference. Every output element is an ascending-k float32 dot product
// plus one bias rounding — the order of a direct per-tap convolution, which
// the tests pin the forward and backward against bit for bit. The input
// gradient runs tap-major: cols = Wᵀ·G straight from the incoming
// gradient, folded back per input channel (tensor.MatMulCol2ImInto).
//
// Weights are stored as an (outC)×(inC·K·K) matrix; bias is per output
// channel. The transposed (inC·K·K)×(outC) matrix both GEMMs read is
// cached across calls until the weights change. All per-call tensors
// (patches, outputs, gradient scratch) live in the model workspace and
// are reused across calls.
type Conv2D struct {
	InC, OutC   int
	K           int
	Stride, Pad int

	w, b *Param
	wT   transposeCache // Wᵀ for the forward and input-gradient GEMMs

	scratch

	// Activation caches for Backward: the patch-major lowering of the last
	// forward and the geometry it was built with, so Backward never
	// re-derives shapes. lastBatch is the sample count (1 for a CHW
	// input); lastRank4 records whether the input carried a leading batch
	// dimension, so Backward returns a gradient of matching rank.
	lastPatches *tensor.Tensor // (N·OutH·OutW) × (InC·K·K)
	lastGeom    tensor.ConvGeom
	lastOutHW   int
	lastBatch   int
	lastRank4   bool
}

// convScratchNames keys the workspace buffers of one conv path. The single
// and batched paths use disjoint key sets so a model alternating between
// per-frame and batched calls keeps both shape families warm instead of
// reallocating on every switch. The transposed weight matrix is absent:
// its shape is batch-independent, so both paths share one "wT" key.
type convScratchNames struct {
	patches, pm, gm, dW, cols, dX string
}

var (
	convSingleKeys = convScratchNames{"patchesS", "pmS", "gmS", "dWS", "colsS", "dXS"}
	convBatchKeys  = convScratchNames{"patchesB", "pmB", "gmB", "dWB", "colsB", "dXB"}
)

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a convolution with Xavier-initialised weights.
func NewConv2D(rng *xrand.RNG, inC, outC, k, stride, pad int) *Conv2D {
	w := tensor.New(outC, inC*k*k)
	rng.Xavier(w.Data(), inC*k*k, outC)
	b := tensor.New(outC)
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		w: newParam(fmt.Sprintf("conv%dx%d_w", inC, outC), w),
		b: newParam(fmt.Sprintf("conv%dx%d_b", inC, outC), b),
	}
}

// Forward implements Layer: rank-4 [N,C,H,W] batches and rank-3 CHW
// samples run the same unified kernel path; only the output rank differs.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	switch {
	case x.Rank() == 4 && x.Dim(1) == c.InC:
		g := tensor.ConvGeom{InC: c.InC, InH: x.Dim(2), InW: x.Dim(3), K: c.K, Stride: c.Stride, Pad: c.Pad}
		n := x.Dim(0)
		out := c.workspace().Tensor4(c, "out4", n, c.OutC, g.OutH(), g.OutW())
		c.lastRank4 = true
		c.runForward(out, x, n, g, &convBatchKeys)
		return out
	case x.Rank() == 3 && x.Dim(0) == c.InC:
		g := tensor.ConvGeom{InC: c.InC, InH: x.Dim(1), InW: x.Dim(2), K: c.K, Stride: c.Stride, Pad: c.Pad}
		out := c.workspace().Tensor3(c, "out3", c.OutC, g.OutH(), g.OutW())
		c.lastRank4 = false
		c.runForward(out, x, 1, g, &convSingleKeys)
		return out
	default:
		panic(fmt.Sprintf("nn: Conv2D expects (%d,H,W) or (N,%d,H,W), got %v", c.InC, c.InC, x.Shape()))
	}
}

// runForward lowers the input (batched or single) into patch-major rows and
// runs one SIMD k-major GEMM, both in one tensor.Im2RowMatMulInto call: a
// large product row-shards across cores with each shard lowering its own
// rows. The orientation keeps the small weight matrix cache-resident —
// patches · Wᵀ — while the samples stream through once; the output is then
// permuted into (N)CHW with the bias fused into the pass. v
// stored-then-added and v+bias round identically, so the fused bias
// matches a separate broadcast pass bit for bit.
func (c *Conv2D) runForward(out, x *tensor.Tensor, n int, g tensor.ConvGeom, nm *convScratchNames) {
	ws := c.workspace()
	p := g.OutH() * g.OutW()
	l := c.InC * c.K * c.K

	// The transposed weights make each lane accumulate one output element
	// in ascending k.
	wT := c.wT.of(ws, c, c.w)
	patches := ws.Tensor2(c, nm.patches, n*p, l)
	pm := ws.Tensor2(c, nm.pm, n*p, c.OutC)
	tensor.Im2RowMatMulInto(pm, patches, x, wT, g)

	od := out.Data()
	pd := pm.Data()
	bd := c.b.Value.Data()
	for s := 0; s < n; s++ {
		src := pd[s*p*c.OutC:]
		dst := od[s*c.OutC*p:]
		for pi := 0; pi < p; pi++ {
			row := src[pi*c.OutC : pi*c.OutC+c.OutC]
			for oc, v := range row {
				dst[oc*p+pi] = v + bd[oc]
			}
		}
	}
	c.lastPatches = patches
	c.lastGeom = g
	c.lastOutHW = p
	c.lastBatch = n
}

// Backward implements Layer. The input gradient of each sample is
// bit-identical to a single-sample backward (same per-element
// accumulation order); the parameter gradients accumulate across the whole
// batch in one pass, so for N>1 their summation order differs from N
// sequential single-sample backwards by floating-point rounding only.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	nm := c.scratchKeys()
	c.accumWeightGrad(c.permuteGrad(grad, nm), nm)
	return c.inputGrad(grad, nm)
}

// BackwardInput implements inputGradLayer: the same input gradient as
// Backward, with the dW/db accumulation skipped entirely.
func (c *Conv2D) BackwardInput(grad *tensor.Tensor) *tensor.Tensor {
	return c.inputGrad(grad, c.scratchKeys())
}

func (c *Conv2D) scratchKeys() *convScratchNames {
	if c.lastRank4 {
		return &convBatchKeys
	}
	return &convSingleKeys
}

// permuteGrad reverse-permutes the incoming [N,OutC,P] gradient into the
// patch-major (N·P)×OutC layout the weight-gradient pass consumes, folding
// db's column sums into the same pass.
func (c *Conv2D) permuteGrad(grad *tensor.Tensor, nm *convScratchNames) *tensor.Tensor {
	n, p := c.lastBatch, c.lastOutHW
	gm := c.workspace().Tensor2(c, nm.gm, n*p, c.OutC)
	gmd := gm.Data()
	gd := grad.Data()
	bg := c.b.Grad.Data()
	for s := 0; s < n; s++ {
		src := gd[s*c.OutC*p:]
		dst := gmd[s*p*c.OutC:]
		for oc := 0; oc < c.OutC; oc++ {
			row := src[oc*p : oc*p+p]
			var sum float32
			for pi, v := range row {
				dst[pi*c.OutC+oc] = v
				sum += v
			}
			bg[oc] += sum
		}
	}
	return gm
}

// accumWeightGrad adds dW[oc] += Σ over patch rows gm[r][oc] · patches[r]:
// rank-1 updates streaming the patches once while dW stays cache-resident.
// Each product is rounded before it is added (float32(g * p)), so arm64,
// where Go would otherwise fuse the update into one FMA, computes the
// same bits as amd64.
func (c *Conv2D) accumWeightGrad(gm *tensor.Tensor, nm *convScratchNames) {
	n, p := c.lastBatch, c.lastOutHW
	l := c.InC * c.K * c.K
	dW := c.workspace().TensorLike(c, nm.dW, c.w.Value)
	dW.Zero()
	dwd := dW.Data()
	gmd := gm.Data()
	ptd := c.lastPatches.Data()
	for r := 0; r < n*p; r++ {
		grow := gmd[r*c.OutC : r*c.OutC+c.OutC]
		prow := ptd[r*l : r*l+l]
		for oc, gv := range grow {
			if gv == 0 { //advlint:floatcmp-ok exact-zero skip: adds exactly 0 either way
				continue
			}
			wrow := dwd[oc*l : oc*l+l]
			for i, pv := range prow {
				wrow[i] += float32(gv * pv)
			}
		}
	}
	c.w.Grad.AddInPlace(dW)
}

// inputGrad computes dX = col2im(Wᵀ · G) in one tensor.MatMulCol2ImInto
// call. The incoming [N,OutC,P] gradient is already k-major for this
// product (the contraction runs over OutC), so the SIMD kernel reads it in
// place, and the transposed weights are the forward's cached Wᵀ.
func (c *Conv2D) inputGrad(grad *tensor.Tensor, nm *convScratchNames) *tensor.Tensor {
	ws := c.workspace()
	g := c.lastGeom
	n, p := c.lastBatch, c.lastOutHW
	cols := ws.Tensor2(c, nm.cols, n*c.InC*c.K*c.K, p)
	var dX *tensor.Tensor
	if c.lastRank4 {
		dX = ws.Tensor4(c, nm.dX, n, g.InC, g.InH, g.InW)
	} else {
		dX = ws.Tensor3(c, nm.dX, g.InC, g.InH, g.InW)
	}
	tensor.MatMulCol2ImInto(dX, cols, c.wT.of(ws, c, c.w), grad, g)
	return dX
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		w: c.w.clone(), b: c.b.clone(),
	}
}
