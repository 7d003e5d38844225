package nn

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Conv2D is a 2-D convolution whose forward is an indirect k-major SIMD
// matrix multiply: it never lowers its input. Single CHW samples and
// [N,C,H,W] batches run the same unified kernel path
// (tensor.IndirectConvInto): per sample the input is copied once into a
// zero-padded buffer the layer keeps, and the lane kernels read every tap
// (c,ky,kx) straight from that copy through the geometry's offset table
// (tensor.ConvTaps), computing W · cols — cols the (InC·K·K) × (OutH·OutW)
// tap-major lowering, never written — into (N)CHW with the output
// positions on the SIMD lanes, sharded across cores on large inputs.
// Every output element is an ascending-(c,ky,kx) float32 dot product plus
// one bias rounding — the order of a direct per-tap convolution, which the
// tests pin the forward and backward against bit for bit. The input
// gradient runs the same plan as its adjoint: cols = Wᵀ·G straight from
// the incoming gradient, each tap's block added into a padded channel at
// the tap's offset and the input pixels written back out of it
// (tensor.MatMulCol2ImInto), and dW reads the incoming gradient and the
// forward's padded copy through the same table, one contiguous run per
// sample.
//
// Weights are stored as an (outC)×(inC·K·K) matrix, which the forward
// reads directly; bias is per output channel. The transposed
// (inC·K·K)×(outC) matrix the input gradient reads is cached across calls
// until the weights change, and so is the tap table until the input size
// changes. All per-call tensors (padded copy, outputs, gradient scratch)
// live in the model workspace and are reused across calls.
type Conv2D struct {
	InC, OutC   int
	K           int
	Stride, Pad int

	w, b *Param
	wT   transposeCache // Wᵀ for the input-gradient GEMM

	scratch

	// taps is the padded layout and tap table of the last forward's
	// geometry, rebuilt only when the input size changes; Backward runs
	// the same plan, so it never re-derives shapes.
	taps *tensor.ConvTaps

	// Activation caches for Backward: the padded copy of what the input
	// held at the last forward (private, so a caller may change its input
	// before Backward). lastBatch is the sample count (1 for a CHW
	// input); lastRank4 records whether the input carried a leading batch
	// dimension, so Backward returns a gradient of matching rank.
	lastXP    *tensor.Tensor // [N, taps.PaddedLen()]
	lastOutHW int
	lastBatch int
	lastRank4 bool
}

// convScratchNames keys the workspace buffers of one conv path. The single
// and batched paths use disjoint key sets so a model alternating between
// per-frame and batched calls keeps both shape families warm instead of
// reallocating on every switch. The transposed weight matrix is absent:
// its shape is batch-independent, so both paths share one "wT" key. So
// are the input gradient's product and fold scratch: dead once inputGrad
// returns, they live in buffers every conv layer of the model shares
// (Workspace.Shared2, convCols and convFold).
type convScratchNames struct {
	pad, dWGrad, dX string
}

var (
	convSingleKeys = convScratchNames{"padS", "dWGradS", "dXS"}
	convBatchKeys  = convScratchNames{"padB", "dWGradB", "dXB"}
)

// The shared workspace names of the input gradient's scratch: the
// tap-major product Wᵀ·G and the padded channels it is folded through.
const (
	convCols = "convCols"
	convFold = "convFold"
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

// runForward copies the input (batched or single) into the layer's padded
// buffer and runs the indirect SIMD k-major GEMM plus the bias, all in one
// tensor.IndirectConvInto call that writes out in (N)CHW directly: a large
// input shards across cores, the copy by channel and the product by output
// rows.
func (c *Conv2D) runForward(out, x *tensor.Tensor, n int, g tensor.ConvGeom, nm *convScratchNames) {
	if c.taps == nil || c.taps.Geom() != g {
		c.taps = tensor.NewConvTaps(g)
	}
	xp := c.workspace().Tensor2(c, nm.pad, n, c.taps.PaddedLen())
	tensor.IndirectConvInto(out, xp, x, c.w.Value, c.b.Value, c.taps)
	c.lastXP = xp
	c.lastOutHW = g.OutH() * g.OutW()
	c.lastBatch = n
}

// Backward implements Layer. The input gradient of each sample is
// bit-identical to a single-sample backward (same per-element
// accumulation order); the parameter gradients accumulate across the whole
// batch in one pass, so for N>1 their summation order differs from N
// sequential single-sample backwards by floating-point rounding only.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	nm := c.scratchKeys()
	c.accumParamGrads(grad, nm)
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

// accumParamGrads adds the batch's parameter gradients to the layer's in
// one tensor.ConvParamGradsInto call: dW reads the incoming gradient,
// laid out at the padded copy's row stride in workspace scratch, against
// the forward's padded copy through the tap table, one unit per output
// channel on the pool. Each weight keeps its per-element summation order,
// exact-zero skip included, so the bits do not depend on the sharding.
func (c *Conv2D) accumParamGrads(grad *tensor.Tensor, nm *convScratchNames) {
	var gq *tensor.Tensor
	if q := c.taps.GridLen(); q != c.lastOutHW {
		gq = c.workspace().Tensor2(c, nm.dWGrad, c.lastBatch*c.OutC, q)
	}
	tensor.ConvParamGradsInto(c.w.Grad, c.b.Grad, grad, gq, c.lastXP, c.taps)
}

// inputGrad computes dX = col2im(Wᵀ · G) in one tensor.MatMulCol2ImInto
// call. The incoming [N,OutC,P] gradient is already k-major for this
// product (the contraction runs over OutC), so the SIMD kernel reads it in
// place, the transposed weights come from the layer's cached Wᵀ, and the
// fold runs through a padded copy in the forward's layout.
func (c *Conv2D) inputGrad(grad *tensor.Tensor, nm *convScratchNames) *tensor.Tensor {
	ws := c.workspace()
	g := c.taps.Geom()
	n, p := c.lastBatch, c.lastOutHW
	cols := ws.Shared2(convCols, n*c.InC*c.K*c.K, p)
	fold := ws.Shared2(convFold, n, c.taps.PaddedLen())
	var dX *tensor.Tensor
	if c.lastRank4 {
		dX = ws.Tensor4(c, nm.dX, n, g.InC, g.InH, g.InW)
	} else {
		dX = ws.Tensor3(c, nm.dX, g.InC, g.InH, g.InW)
	}
	tensor.MatMulCol2ImInto(dX, cols, fold, c.wT.of(ws, c, c.w), grad, c.taps)
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
