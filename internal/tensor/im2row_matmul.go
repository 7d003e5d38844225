package tensor

import "fmt"

// Im2RowMatMulInto is the convolution forward's lowering and GEMM in one
// call: it lowers x into patches exactly as Im2RowInto does and computes
// dst = patches·wT exactly as MatMulKMajorInto does. wT is the
// (InC·K·K) × OutC transposed weight matrix, patches must be
// (N·OutH·OutW) × (InC·K·K) and dst (N·OutH·OutW) × OutC. The whole patch
// matrix is still written, so a backward pass can read it afterwards.
//
// Past the GEMM's parallelMinWork gate the product is row-sharded over the
// persistent pool in whole output rows — one (sample, oy) pair per unit —
// and each shard lowers its own rows before multiplying them, so the
// lowering runs on every core instead of serially ahead of the GEMM.
// Below the gate it lowers the whole batch, then multiplies, on the
// calling goroutine. Either way every output element is the same
// ascending-k dot, so the result is bit-identical to the two-call form at
// any GOMAXPROCS.
//
//advlint:noalloc
func Im2RowMatMulInto(dst, patches, x, wT *Tensor, g ConvGeom) {
	n := batchGeomCheck(x, g, "Im2RowMatMulInto")
	outH, outW := g.OutH(), g.OutW()
	m, l := n*outH*outW, g.InC*g.K*g.K
	if patches.Rank() != 2 || patches.shape[0] != m || patches.shape[1] != l {
		panic(fmt.Sprintf("tensor: Im2RowMatMulInto patches %v, want [%d %d]", patches.shape, m, l))
	}
	if wT.Rank() != 2 || wT.shape[0] != l || dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != wT.shape[1] {
		panic(fmt.Sprintf("tensor: Im2RowMatMulInto shapes %v = [%d %d] x %v", dst.shape, m, l, wT.shape))
	}
	oc := wT.shape[1]
	t := poolTask{c: dst.data, a: patches.data, bk: wT.data, k: l, n: oc, x: x.data, g: g}
	t.shard(n*outH, outW, shardWorkers(m, l, oc))
}

// MatMulCol2ImInto is the convolution's input gradient in one call: it
// computes the tap-major product cols = Wᵀ·G of each sample and folds it
// back into dst, the adjoint of Im2RowInto followed by the forward GEMM.
// wT is the forward's (InC·K·K) × OutC transposed weight matrix, grad the
// incoming [N,OutC,OutH,OutW] output gradient read in place (N·OutC·OutH·OutW
// elements, a single sample treated as N=1), cols (N·InC·K·K) ×
// (OutH·OutW) scratch, and dst the [N,C,H,W] — or single [C,H,W] — input
// gradient. dst and cols are fully overwritten.
//
// The work splits into (sample, input channel) units: a unit computes the
// K·K rows of cols its channel's taps own — an ascending-OutC dot per
// element, exactly as MatMulKMajorInto — and folds them into its own
// channel plane, each pixel summing its taps in ascending (ky,kx) order
// from +0 (col2imPlane). Past the GEMM's parallelMinWork gate the units
// are sharded over the persistent pool; units write disjoint rows and
// planes, so the result is bit-identical at any GOMAXPROCS.
//
//advlint:noalloc
func MatMulCol2ImInto(dst, cols, wT, grad *Tensor, g ConvGeom) {
	n := batchGeomCheck(dst, g, "MatMulCol2ImInto")
	p := g.OutH() * g.OutW()
	l := g.InC * g.K * g.K
	if cols.Rank() != 2 || cols.shape[0] != n*l || cols.shape[1] != p {
		panic(fmt.Sprintf("tensor: MatMulCol2ImInto cols %v, want [%d %d]", cols.shape, n*l, p))
	}
	if wT.Rank() != 2 || wT.shape[0] != l || grad.Len() != n*wT.shape[1]*p {
		panic(fmt.Sprintf("tensor: MatMulCol2ImInto wT %v and grad %v, want [%d OutC] and [%d OutC %d %d]", wT.shape, grad.shape, l, n, g.OutH(), g.OutW()))
	}
	oc := wT.shape[1]
	t := poolTask{c: cols.data, a: wT.data, bk: grad.data, k: oc, n: p, dx: dst.data, g: g}
	t.shard(n*g.InC, 1, shardWorkers(n*l, oc, p))
}

// col2imUnits runs units [u0, u1) of a MatMulCol2ImInto call: unit u is
// input channel u mod InC of sample u div InC. It multiplies the channel's
// K·K rows of wT by the sample's OutC × P gradient into its rows of cols,
// then folds those rows into the channel's plane of dx.
func col2imUnits(dx, cols, wT, grad []float32, g ConvGeom, oc, u0, u1 int) {
	kk := g.K * g.K
	p := g.OutH() * g.OutW()
	plane := g.InH * g.InW
	for u := u0; u < u1; u++ {
		s, ch := u/g.InC, u%g.InC
		rows := cols[u*kk*p : (u+1)*kk*p]
		matMulKMajorSerial(rows, wT[ch*kk*oc:], grad[s*oc*p:], kk, oc, p)
		col2imPlane(dx[u*plane:(u+1)*plane], rows, g)
	}
}
