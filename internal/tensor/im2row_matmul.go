package tensor

import "fmt"

// Im2ColMatMulInto is the convolution forward in one call: per sample it
// lowers x tap-major into cols (im2colRows) and computes
// out = w·cols + bias, an OutC × (OutH·OutW) product that lands in CHW
// with the output positions on the SIMD lanes. w is the OutC × (InC·K·K)
// weight matrix, bias holds OutC values, x is the [N,C,H,W] — or single
// [C,H,W] — input, cols (N·InC·K·K) × (OutH·OutW) scratch and dst holds
// N·OutC·OutH·OutW elements. Each output element is the ascending-(c,ky,kx)
// dot of its window with its filter plus one bias rounding. The whole
// lowering is written, so a backward pass can read it.
//
// Past the GEMM's shardWorkers gate the work is sharded by (sample, output
// row): a shard lowers, multiplies and biases its own column bands, and
// the serial driver's tail block stays inside its band, so no two shards
// write one column and the bits are the same at any GOMAXPROCS.
//
//advlint:noalloc
func Im2ColMatMulInto(dst, cols, x, w, bias *Tensor, g ConvGeom) {
	n := batchGeomCheck(x, g, "Im2ColMatMulInto")
	p := g.OutH() * g.OutW()
	l := g.InC * g.K * g.K
	if cols.Rank() != 2 || cols.shape[0] != n*l || cols.shape[1] != p {
		panic(fmt.Sprintf("tensor: Im2ColMatMulInto cols %v, want [%d %d]", cols.shape, n*l, p))
	}
	if w.Rank() != 2 || w.shape[1] != l || bias.Len() != w.shape[0] || dst.Len() != n*w.shape[0]*p {
		panic(fmt.Sprintf("tensor: Im2ColMatMulInto w %v, bias %v and dst %v, want [OutC %d], [OutC] and [%d OutC %d %d]", w.shape, bias.shape, dst.shape, l, n, g.OutH(), g.OutW()))
	}
	oc := w.shape[0]
	t := poolTask{c: dst.data, a: w.data, bk: cols.data, k: l, n: oc, x: x.data, b: bias.data, g: g}
	t.shard(n*g.OutH(), shardWorkers(n*p, l, oc))
}

// im2colUnits runs units [u0, u1) of an Im2ColMatMulInto call: unit u is
// output row u mod OutH of sample u div OutH, and owns the column band
// [oy·OutW, (oy+1)·OutW) of that sample's lowering and output. Consecutive
// units of one sample run as one band: lowered, multiplied by w, and
// biased.
func im2colUnits(dst, cols, w, bias, x []float32, g ConvGeom, oc, u0, u1 int) {
	outH, outW := g.OutH(), g.OutW()
	p, l := outH*outW, g.InC*g.K*g.K
	sampleLen := g.InC * g.InH * g.InW
	for u := u0; u < u1; {
		s, oy0 := u/outH, u%outH
		oy1 := min(outH, oy0+u1-u)
		cs := cols[s*l*p : (s+1)*l*p]
		im2colRows(cs, x[s*sampleLen:(s+1)*sampleLen], g, oy0, oy1)
		out := dst[s*oc*p : (s+1)*oc*p]
		j0, j1 := oy0*outW, oy1*outW
		matMulKMajorCols(out, w, cs, oc, l, p, j0, j1)
		for o, b := range bias[:oc] {
			band := out[o*p+j0 : o*p+j1]
			for i := range band {
				band[i] += b
			}
		}
		u += oy1 - oy0
	}
}

// MatMulCol2ImInto is the convolution's input gradient in one call: it
// computes the tap-major product cols = Wᵀ·G of each sample and folds it
// back into dst, the adjoint of Im2ColMatMulInto's product.
// wT is the (InC·K·K) × OutC transposed weight matrix, grad the
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
	t.shard(n*g.InC, shardWorkers(n*l, oc, p))
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
