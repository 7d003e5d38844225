package nn

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Linear is a fully connected layer y = Wx + b. Single flat vectors and
// [N,In] batches run the same unified kernel path: one k-major SIMD GEMM
// against the transposed weight matrix (for a single sample that is a
// 1×In gemv, which the kernel's single-row assembly tail keeps on SIMD),
// then a bias pass. Every output element is the same ascending-index
// float32 dot product plus one bias rounding as the original per-sample
// scalar loop, so unifying the paths changed no bits.
type Linear struct {
	In, Out int

	w, b *Param

	scratch
	lastIn    *tensor.Tensor // workspace copy of the forward input, [N,In]
	lastBatch int            // N of the last forward (1 for a flat vector)
	lastFlat  bool           // input was a flat vector: outputs keep rank 1

	wT transposeCache // Wᵀ for the forward GEMM

	outView viewCache // rank-1 view over the [1,Out] output
	gmView  viewCache // rank-2 view over the incoming gradient
	dxView  viewCache // rank-1 view over the [1,In] input gradient
}

var _ Layer = (*Linear)(nil)

// NewLinear constructs a dense layer with Xavier-initialised weights.
func NewLinear(rng *xrand.RNG, in, out int) *Linear {
	w := tensor.New(out, in)
	rng.Xavier(w.Data(), in, out)
	b := tensor.New(out)
	return &Linear{
		In: in, Out: out,
		w: newParam(fmt.Sprintf("linear%dx%d_w", in, out), w),
		b: newParam(fmt.Sprintf("linear%dx%d_b", in, out), b),
	}
}

// linearScratchNames keys the workspace buffers of one dense path; like
// Conv2D, the flat-single and batched paths use disjoint key sets so a
// model alternating between per-frame and batched calls keeps both shape
// families warm instead of reallocating on every switch.
type linearScratchNames struct {
	lastIn, out, dx string
}

var (
	linearSingleKeys = linearScratchNames{"lastInS", "outS", "dxS"}
	linearBatchKeys  = linearScratchNames{"lastInB", "outB", "dxB"}
)

// Forward implements Layer. Rank-2 [N,In] inputs are a batch (including
// batch-of-1, which keeps its leading dimension); any other shape with
// exactly In elements is treated as one flat vector and returns a flat
// [Out] vector.
func (l *Linear) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() == 2 && x.Dim(1) == l.In {
		l.lastFlat = false
		return l.runForward(x.Data(), x.Dim(0))
	}
	if x.Len() != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d inputs or a (N,%d) batch, got shape %v", l.In, l.In, x.Shape()))
	}
	l.lastFlat = true
	return l.outView.of1(l.runForward(x.Data(), 1))
}

func (l *Linear) scratchKeys() *linearScratchNames {
	if l.lastFlat {
		return &linearSingleKeys
	}
	return &linearBatchKeys
}

// runForward computes the [N,Out] output as X · Wᵀ with the k-major SIMD
// kernel — one gemm for the batch, a SIMD gemv for a single sample — then
// adds the bias. The input is copied into workspace scratch first (Backward
// needs it), and that stable copy is the GEMM operand, so no per-call
// tensor view of the caller's storage is ever built.
//
// The transposed weight matrix comes from the layer's transposeCache, so
// the m=1 dense-head gemv stops paying an In×Out transpose it never
// amortises.
func (l *Linear) runForward(xd []float32, n int) *tensor.Tensor {
	ws := l.workspace()
	lastIn := ws.Tensor2(l, l.scratchKeys().lastIn, n, l.In)
	copy(lastIn.Data(), xd)
	l.lastIn = lastIn
	l.lastBatch = n
	wT := l.wT.of(ws, l, l.w)
	out := ws.Tensor2(l, l.scratchKeys().out, n, l.Out)
	tensor.MatMulKMajorInto(out, lastIn, wT)
	od := out.Data()
	bd := l.b.Value.Data()
	for r := 0; r < n; r++ {
		row := od[r*l.Out : (r+1)*l.Out]
		for o := range row {
			row[o] += bd[o]
		}
	}
	return out
}

// Backward implements Layer: per-sample input gradients are bit-identical
// to the pre-unification per-sample loop; parameter gradients accumulate
// across the batch in one pass.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := l.lastBatch
	gd := grad.Data()
	wg := l.w.Grad.Data()
	bg := l.b.Grad.Data()
	xd := l.lastIn.Data()

	for r := 0; r < n; r++ {
		grow := gd[r*l.Out : (r+1)*l.Out]
		xrow := xd[r*l.In : (r+1)*l.In]
		for o, g := range grow {
			bg[o] += g
			if g == 0 { //advlint:floatcmp-ok exact-zero skip: adds exactly 0 either way
				continue
			}
			wgrow := wg[o*l.In : (o+1)*l.In]
			for i := range wgrow {
				wgrow[i] += float32(g * xrow[i]) // rounded product: no FMA on arm64
			}
		}
	}

	return l.inputGrad(grad, n)
}

// BackwardInput implements inputGradLayer: the same input gradient as
// Backward with the dW/db accumulation skipped.
func (l *Linear) BackwardInput(grad *tensor.Tensor) *tensor.Tensor {
	return l.inputGrad(grad, l.lastBatch)
}

// inputGrad computes dx = G · W: the weight matrix is already k-major for
// this product (the contraction runs over Out), so the SIMD kernel consumes
// it directly — each dx element is the same ascending-o dot product the
// old scalar accumulation computed.
func (l *Linear) inputGrad(grad *tensor.Tensor, n int) *tensor.Tensor {
	gm := grad
	if gm.Rank() != 2 {
		gm = l.gmView.of2(grad, n, l.Out)
	}
	dx := l.workspace().Tensor2(l, l.scratchKeys().dx, n, l.In)
	tensor.MatMulKMajorInto(dx, gm, l.w.Value)
	if l.lastFlat {
		return l.dxView.of1(dx)
	}
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }

// Clone implements Layer.
func (l *Linear) Clone() Layer {
	return &Linear{In: l.In, Out: l.Out, w: l.w.clone(), b: l.b.clone()}
}
