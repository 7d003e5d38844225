package tensor

import "fmt"

// IndirectConvInto is the convolution forward in one call, with no
// lowering: it copies each sample of x once into its zero-padded,
// polyphase-split form xp (t's layout, padChannel), then computes
// out = w·cols + bias per sample, reading every tap's row of cols in
// place from xp through t's offset table. The OutC × (OutH·OutW) product
// lands in CHW with the output positions on the SIMD lanes. w is the
// OutC × (InC·K·K) weight matrix, bias holds OutC values, x is the
// [N,C,H,W] — or single [C,H,W] — input, xp holds N·t.PaddedLen() floats
// and dst N·OutC·OutH·OutW. Each output element is the ascending-(c,ky,kx)
// dot of its window with its filter — padding taps multiply +0 — plus one
// bias rounding: the bits of the tap-major lowering followed by the
// k-major GEMM. xp is fully written, so a backward pass can read it.
//
// Past the GEMM's shardWorkers gate both steps are sharded: the copy by
// (sample, input channel), then the product by (sample, output row). A
// product shard multiplies and biases its own output rows through its own
// stack buffer, so no two shards write one element and the bits are the
// same at any GOMAXPROCS.
//
//advlint:noalloc
func IndirectConvInto(dst, xp, x, w, bias *Tensor, t *ConvTaps) {
	g := t.g
	n := batchGeomCheck(x, g, "IndirectConvInto")
	p := g.OutH() * g.OutW()
	l := len(t.off)
	if xp.Len() != n*t.sampleLen {
		panic(fmt.Sprintf("tensor: IndirectConvInto padded copy %v, want %d floats", xp.shape, n*t.sampleLen))
	}
	if w.Rank() != 2 || w.shape[1] != l || bias.Len() != w.shape[0] || dst.Len() != n*w.shape[0]*p {
		panic(fmt.Sprintf("tensor: IndirectConvInto w %v, bias %v and dst %v, want [OutC %d], [OutC] and [%d OutC %d %d]", w.shape, bias.shape, dst.shape, l, n, g.OutH(), g.OutW()))
	}
	oc := w.shape[0]
	indirectConv(dst.data, xp.data, x.data, w.data, bias.data, t, n, oc, shardWorkers(n*p, l, oc))
}

// indirectConv runs IndirectConvInto's two dispatches — the padded copy,
// then the product — over at most workers shards each.
func indirectConv(dst, xp, x, w, bias []float32, t *ConvTaps, n, oc, workers int) {
	poolTask{op: opPad, c: xp, bk: x, taps: t}.shard(n*t.g.InC, workers)
	poolTask{op: opConv, c: dst, a: w, bk: xp, b: bias, n: oc, taps: t}.shard(n*t.g.OutH(), workers)
}

// gridChunk is the size, in floats, of the stack buffer a conv forward
// shard computes its product into before biasing it into the output.
const gridChunk = 4096

// indirectUnits runs units [u0, u1) of the product: unit u is output row
// u mod OutH of sample u div OutH, and owns the columns
// [oy·OutW, (oy+1)·OutW) of that sample's output.
//
// Output (oy,ox) reads its taps at q + off[l] in the padded copy, with
// q = oy·Wq + ox its position on the copy's grid. So the lane
// kernels run along the grid, not along output rows: consecutive units of
// one sample cover the grid columns [oy0·Wq, (oy1−1)·Wq + OutW), which
// laneBlocks tiles into full-width blocks that run across row ends. The
// Wq − OutW columns between two rows belong to no output; they are
// computed and dropped. The product goes into a stack buffer of at most
// gridChunk floats, chunk by chunk, and each chunk's real columns are
// biased into the output. Every output element is still one
// ascending-(c,ky,kx) dot plus one bias rounding.
func indirectUnits(dst, xp, w, bias []float32, t *ConvTaps, oc, u0, u1 int) {
	var acc [gridChunk]float32
	outH, outW, wq := t.g.OutH(), t.g.OutW(), t.wq
	p, l := outH*outW, len(t.off)
	og := min(oc, gridChunk/16) // output channels per pass
	for u := u0; u < u1; {
		s, oy0 := u/outH, u%outH
		oy1 := min(outH, oy0+u1-u)
		out := dst[s*oc*p : (s+1)*oc*p]
		xs := xp[s*t.sampleLen : (s+1)*t.sampleLen]
		q0, q1 := oy0*wq, (oy1-1)*wq+outW
		for o0 := 0; o0 < oc; o0 += og {
			m := min(og, oc-o0)
			// Split the grid columns into equal chunks that fit the buffer,
			// rounded up to whole widest lane blocks, so no chunk but the
			// last ends on a narrower step-down block.
			chunks := (q1 - q0 + gridChunk/m - 1) / (gridChunk / m)
			cw := min(gridChunk/m, ((q1-q0+chunks-1)/chunks+widest-1)&^(widest-1))
			for qa := q0; qa < q1; qa += cw {
				qb := min(q1, qa+cw)
				laneBlocks(acc[:], w[o0*l:], xs[qa:], t.off, m, l, cw, qb-qa)
				for o := range m {
					biasGridRows(out[(o0+o)*p:(o0+o+1)*p], acc[o*cw:o*cw+qb-qa], bias[o0+o], qa/wq, qa%wq, outW, wq)
				}
			}
		}
		u += oy1 - oy0
	}
}

// biasGridRows writes the real columns of one output channel's grid
// columns into its CHW plane out, each plus b. grid starts at grid column
// oy·wq + ox; grid column oy·wq + x is output (oy,x) when x < outW, and
// is dropped otherwise.
func biasGridRows(out, grid []float32, b float32, oy, ox, outW, wq int) {
	for len(grid) > 0 {
		n := min(len(grid), wq-ox)
		if ox < outW {
			src := grid[:min(n, outW-ox)]
			addConst(out[oy*outW+ox:][:len(src)], src, b)
		}
		grid = grid[n:]
		oy, ox = oy+1, 0
	}
}

// MatMulCol2ImInto is the convolution's input gradient in one call, with
// the forward's plan t run as its adjoint: it computes the tap-major
// product cols = Wᵀ·G of each sample and folds it back into dst through
// fold, a padded copy in t's layout. wT is the (InC·K·K) × OutC
// transposed weight matrix, grad the incoming [N,OutC,OutH,OutW] output
// gradient read in place (N·OutC·OutH·OutW elements, a single sample
// treated as N=1), cols (N·InC·K·K) × (OutH·OutW) scratch, fold
// N·t.PaddedLen() floats of scratch, and dst the [N,C,H,W] — or single
// [C,H,W] — input gradient. dst, cols and fold are fully overwritten.
//
// The work splits into (sample, input channel) units: a unit computes the
// K·K rows of cols its channel's taps own — an ascending-OutC dot per
// element, exactly as MatMulKMajorInto — and folds them into its own
// channel plane through its own padded channel of fold (foldChannel): one
// vector block add per tap at the tap's offset in the forward's table,
// each pixel summing its taps in ascending (ky,kx) order from +0, then
// one pass that writes the input pixels out of the polyphase layout. Past
// the GEMM's parallelMinWork gate the units are sharded over the
// persistent pool; units write disjoint rows, padded channels and planes,
// so the result is bit-identical at any GOMAXPROCS.
//
//advlint:noalloc
func MatMulCol2ImInto(dst, cols, fold, wT, grad *Tensor, t *ConvTaps) {
	g := t.g
	n := batchGeomCheck(dst, g, "MatMulCol2ImInto")
	p := g.OutH() * g.OutW()
	l := len(t.off)
	if cols.Rank() != 2 || cols.shape[0] != n*l || cols.shape[1] != p || fold.Len() != n*t.sampleLen {
		panic(fmt.Sprintf("tensor: MatMulCol2ImInto cols %v and fold %v, want [%d %d] and %d floats", cols.shape, fold.shape, n*l, p, n*t.sampleLen))
	}
	if wT.Rank() != 2 || wT.shape[0] != l || grad.Len() != n*wT.shape[1]*p {
		panic(fmt.Sprintf("tensor: MatMulCol2ImInto wT %v and grad %v, want [%d OutC] and [%d OutC %d %d]", wT.shape, grad.shape, l, n, g.OutH(), g.OutW()))
	}
	oc := wT.shape[1]
	pt := poolTask{op: opCol2Im, c: cols.data, a: wT.data, bk: grad.data, b: fold.data, k: oc, n: p, dx: dst.data, taps: t}
	pt.shard(n*g.InC, shardWorkers(n*l, oc, p))
}

// col2imUnits runs units [u0, u1) of a MatMulCol2ImInto call (see
// poolTask for the operands): unit u is input channel u mod InC of sample
// u div InC. It multiplies the channel's K·K rows of wT by the sample's
// OutC × P gradient into its rows of cols, then folds those rows into the
// channel's plane of dx through its padded channel of the fold scratch.
func col2imUnits(pt *poolTask, u0, u1 int) {
	t, oc, p := pt.taps, pt.k, pt.n
	g := t.g
	kk := g.K * g.K
	plane, chanLen := g.InH*g.InW, t.sampleLen/g.InC
	for u := u0; u < u1; u++ {
		s, ch := u/g.InC, u%g.InC
		rows := pt.c[u*kk*p : (u+1)*kk*p]
		matMulKMajorSerial(rows, pt.a[ch*kk*oc:], pt.bk[s*oc*p:], kk, oc, p)
		t.foldChannel(pt.dx[u*plane:(u+1)*plane], pt.b[u*chanLen:(u+1)*chanLen], rows)
	}
}

// ConvParamGradsInto adds a convolution's parameter gradients to dw and
// db: db[oc] += Σ_p G[s][oc][p] per sample, and
// dW[oc][l] += Σ_r G[oc][r] · cols[l][r] over r = s·P + p ascending, where
// cols[l][p] = xp[s][oy·Wq + ox + off[l]] is tap l of output position
// p = (oy,ox), read from the forward's padded copy xp (N·t.PaddedLen()
// floats, as IndirectConvInto left it) through t's tap table. dw is the
// OutC × (InC·K·K) weight gradient, db holds OutC floats and grad is the
// [N,OutC,OutH,OutW] — or single [OutC,OutH,OutW] — output gradient.
//
// The gradient is first laid out at the copy's row stride in gq
// (N·OutC·t.GridLen() floats of scratch; unused, and may be nil, when
// Wq is OutW), so each (output channel, tap) sum walks a sample as
// one contiguous run of the gradient against one contiguous run of the
// copy; the slots between output rows hold 0. Each product is rounded
// before it is added (float32(g * v)), so arm64, where Go would otherwise
// fuse the update into one FMA, computes the same bits as amd64. An
// exact-zero gradient is passed over, as a direct per-tap convolution
// would: its product with an Inf or NaN tap would be NaN.
//
// The work splits into one unit per output channel, which owns its row
// of dw, its entry of db and its rows of gq. Past the GEMM's
// parallelMinWork gate the units are sharded over the persistent pool;
// each weight keeps its per-element summation order, so the result is
// bit-identical at any GOMAXPROCS.
//
//advlint:noalloc
func ConvParamGradsInto(dw, db, grad, gq, xp *Tensor, t *ConvTaps) {
	g := t.g
	l := len(t.off)
	oc := db.Len()
	n := xp.Len() / t.sampleLen
	p, q := g.OutH()*g.OutW(), t.GridLen()
	if xp.Len() != n*t.sampleLen || dw.Len() != oc*l || grad.Len() != n*oc*p {
		panic(fmt.Sprintf("tensor: ConvParamGradsInto dw %v, db %v, grad %v and padded copy %v, want [OutC %d], [OutC], [N OutC %d %d] and [N %d]", dw.shape, db.shape, grad.shape, xp.shape, l, g.OutH(), g.OutW(), t.sampleLen))
	}
	var gqd []float32
	if q != p {
		if gq == nil || gq.Len() != n*oc*q {
			panic(fmt.Sprintf("tensor: ConvParamGradsInto needs %d floats of scratch", n*oc*q))
		}
		gqd = gq.data
	}
	pt := poolTask{op: opParamGrad, c: dw.data, b: db.data, a: grad.data, dx: gqd, bk: xp.data, k: q, n: n, taps: t}
	pt.shard(oc, shardWorkers(oc, l, n*q))
}

// paramGradUnits runs units [u0, u1) of a ConvParamGradsInto call (see
// poolTask for the operands): unit u is output channel u. It adds the
// channel's bias gradient, lays its gradient rows out at the copy's row
// stride, then adds its row of the weight gradient four taps at a time;
// past the last tap a block re-reads the last one and drops those sums.
func paramGradUnits(pt *poolTask, u0, u1 int) {
	t, gd, db, dw := pt.taps, pt.a, pt.b, pt.c
	n, q, oc := pt.n, pt.k, len(pt.b)
	outW, p, l := t.g.OutW(), t.g.OutH()*t.g.OutW(), len(t.off)
	for u := u0; u < u1; u++ {
		for s := 0; s < n; s++ {
			var sum float32
			for _, v := range gd[(s*oc+u)*p : (s*oc+u+1)*p] {
				sum += v
			}
			db[u] += sum
		}
		gq := gd
		if pt.dx != nil {
			gq = pt.dx
			for s := 0; s < n; s++ {
				r := s*oc + u
				src, dst := gd[r*p:(r+1)*p], gq[r*q:(r+1)*q]
				for oy := 0; oy*outW < p; oy++ {
					copy(dst[oy*t.wq:], src[oy*outW:(oy+1)*outW])
					if (oy+1)*outW < p {
						clear(dst[oy*t.wq+outW : (oy+1)*t.wq])
					}
				}
			}
		}
		for li := 0; li < l; li += 4 {
			taps := [4]int{int(t.off[li]), int(t.off[min(li+1, l-1)]), int(t.off[min(li+2, l-1)]), int(t.off[min(li+3, l-1)])}
			sums := accum4(gq[u*q:], oc*q, q, pt.bk, t.sampleLen, &taps, n)
			for k, v := range sums[:min(4, l-li)] {
				dw[u*l+li+k] += v
			}
		}
	}
}

// accum4 returns, for the four taps at offsets taps[0…3] of each padded
// sample, Σ g·x over n samples in order, each sample pairing its q
// gradient floats (g[s·gStride:]) with the q floats of its padded copy
// from the tap on (xp[s·sampleLen + tap:]), in ascending position. Each
// product is rounded before it is added, and an exact-zero gradient is
// passed over. A leaf of its own, so the loop keeps its sums and index in
// registers.
func accum4(g []float32, gStride, q int, xp []float32, sampleLen int, taps *[4]int, n int) [4]float32 {
	var a0, a1, a2, a3 float32
	for s := 0; s < n; s++ {
		gs, xs := g[s*gStride:][:q], xp[s*sampleLen:]
		c0, c1, c2, c3 := xs[taps[0]:][:q], xs[taps[1]:][:q], xs[taps[2]:][:q], xs[taps[3]:][:q]
		for i, gv := range gs {
			if gv == 0 { //advlint:floatcmp-ok exact-zero skip: adds exactly 0 either way
				continue
			}
			a0 += float32(gv * c0[i])
			a1 += float32(gv * c1[i])
			a2 += float32(gv * c2[i])
			a3 += float32(gv * c3[i])
		}
	}
	return [4]float32{a0, a1, a2, a3}
}
