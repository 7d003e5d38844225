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
