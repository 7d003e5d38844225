package nn

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Conv2D is a 2-D convolution lowered tap-major so its inner loop is a
// single k-major SIMD matrix multiply. Single CHW samples and [N,C,H,W]
// batches run the same unified kernel path: per sample the product
// W · cols, cols the (InC·K·K) × (OutH·OutW) tap-major lowering, lands in
// (N)CHW with the output positions on the SIMD lanes
// (tensor.Im2ColMatMulInto, which lowers, multiplies and adds the bias
// band by band, sharded across cores on large inputs). Every output
// element is an ascending-(c,ky,kx) float32 dot product plus one bias
// rounding — the order of a direct per-tap convolution, which the tests
// pin the forward and backward against bit for bit. The input gradient
// runs tap-major too: cols = Wᵀ·G straight from the incoming gradient,
// folded back per input channel (tensor.MatMulCol2ImInto), and dW reads
// the incoming gradient and the forward's lowering row by row.
//
// Weights are stored as an (outC)×(inC·K·K) matrix, which the forward
// reads directly; bias is per output channel. The transposed
// (inC·K·K)×(outC) matrix the input gradient reads is cached across calls
// until the weights change. All per-call tensors (lowering, outputs,
// gradient scratch) live in the model workspace and are reused across
// calls.
type Conv2D struct {
	InC, OutC   int
	K           int
	Stride, Pad int

	w, b *Param
	wT   transposeCache // Wᵀ for the input-gradient GEMM

	scratch

	// Activation caches for Backward: the tap-major lowering of the last
	// forward, a private copy of what the input held, and the geometry it
	// was built with, so Backward never re-derives shapes. lastBatch is the
	// sample count (1 for a CHW input); lastRank4 records whether the input
	// carried a leading batch dimension, so Backward returns a gradient of
	// matching rank.
	lastCols  []float32 // [N, InC·K·K, OutH·OutW]
	lastGeom  tensor.ConvGeom
	lastOutHW int
	lastBatch int
	lastRank4 bool
}

// convScratchNames keys the workspace buffers of one conv path. The single
// and batched paths use disjoint key sets so a model alternating between
// per-frame and batched calls keeps both shape families warm instead of
// reallocating on every switch. The transposed weight matrix is absent:
// its shape is batch-independent, so both paths share one "wT" key.
type convScratchNames struct {
	im2col, col2im, dX string
}

var (
	convSingleKeys = convScratchNames{"im2colS", "col2imS", "dXS"}
	convBatchKeys  = convScratchNames{"im2colB", "col2imB", "dXB"}
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

// runForward lowers the input (batched or single) tap-major and runs one
// SIMD k-major GEMM per sample plus the bias, all in one
// tensor.Im2ColMatMulInto call that writes out in (N)CHW directly: a large
// product shards across cores by output rows, each shard lowering its own
// column band.
func (c *Conv2D) runForward(out, x *tensor.Tensor, n int, g tensor.ConvGeom, nm *convScratchNames) {
	p := g.OutH() * g.OutW()
	cols := c.workspace().Tensor2(c, nm.im2col, n*c.InC*c.K*c.K, p)
	tensor.Im2ColMatMulInto(out, cols, x, c.w.Value, c.b.Value, g)
	c.lastCols = cols.Data()
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
	c.accumParamGrads(grad)
	return c.inputGrad(grad, c.scratchKeys())
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

// accumParamGrads adds the batch's parameter gradients to the layer's:
// db[oc] += Σ_p G[s][oc][p] per sample, and
// dW[oc][l] += Σ_r G[oc][r] · cols[l][r] over r = s·P + p ascending, both
// operands read as contiguous rows of the [N,OutC,P] gradient and the
// forward's [N,L,P] lowering. An exact-zero gradient adds nothing, and
// each product is rounded before it is added (float32(g * v)), so arm64,
// where Go would otherwise fuse the update into one FMA, computes the same
// bits as amd64. Four taps share each gradient load; past the last tap
// the block re-reads it and drops those sums.
func (c *Conv2D) accumParamGrads(grad *tensor.Tensor) {
	n, p := c.lastBatch, c.lastOutHW
	l := c.InC * c.K * c.K
	gd, cd := grad.Data(), c.lastCols
	bg := c.b.Grad.Data()
	for s := 0; s < n; s++ {
		for oc := range bg {
			var sum float32
			for _, v := range gd[(s*c.OutC+oc)*p : (s*c.OutC+oc+1)*p] {
				sum += v
			}
			bg[oc] += sum
		}
	}
	wg := c.w.Grad.Data()
	for oc := 0; oc < c.OutC; oc++ {
		for li := 0; li < l; li += 4 {
			t1, t2, t3 := min(li+1, l-1), min(li+2, l-1), min(li+3, l-1)
			var a0, a1, a2, a3 float32
			for s := 0; s < n; s++ {
				grow := gd[(s*c.OutC+oc)*p : (s*c.OutC+oc+1)*p]
				sc := cd[s*l*p : (s+1)*l*p]
				c0, c1 := sc[li*p:][:len(grow)], sc[t1*p:][:len(grow)]
				c2, c3 := sc[t2*p:][:len(grow)], sc[t3*p:][:len(grow)]
				for i, gv := range grow {
					if gv == 0 { //advlint:floatcmp-ok exact-zero skip: adds exactly 0 either way
						continue
					}
					a0 += float32(gv * c0[i])
					a1 += float32(gv * c1[i])
					a2 += float32(gv * c2[i])
					a3 += float32(gv * c3[i])
				}
			}
			sums := [4]float32{a0, a1, a2, a3}
			for t, v := range sums[:min(4, l-li)] {
				wg[oc*l+li+t] += v
			}
		}
	}
}

// inputGrad computes dX = col2im(Wᵀ · G) in one tensor.MatMulCol2ImInto
// call. The incoming [N,OutC,P] gradient is already k-major for this
// product (the contraction runs over OutC), so the SIMD kernel reads it in
// place, and the transposed weights come from the layer's cached Wᵀ.
func (c *Conv2D) inputGrad(grad *tensor.Tensor, nm *convScratchNames) *tensor.Tensor {
	ws := c.workspace()
	g := c.lastGeom
	n, p := c.lastBatch, c.lastOutHW
	cols := ws.Tensor2(c, nm.col2im, n*c.InC*c.K*c.K, p)
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
