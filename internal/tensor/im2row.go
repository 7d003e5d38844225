package tensor

import "fmt"

// Convolution geometry and data layout, one tap order for both
// directions: tap l = (c,ky,kx), ascending.
//
// The forward is indirect (IndirectConvInto): it never lowers. Each sample
// is copied once into a zero-padded, polyphase-split buffer (ConvTaps,
// padChannel), and the lane kernels read each tap's row of B straight from
// that copy through a per-geometry table of offsets, computing
// out = W·cols per sample as if cols — the (InC·K·K) × (OutH·OutW)
// tap-major lowering, cols[l][p] = xp[base(p) + off[l]] — had been
// written. The product lands in CHW with the output positions on the SIMD
// lanes. Each output element remains an ascending-(c,ky,kx) dot whose
// padding taps multiply +0, so batched convolution is bit-identical per
// frame to a single-sample call and to the lowering it replaces.
//
// The input gradient runs the same plan the other way round:
// MatMulCol2ImInto forms the tap-major cols = Wᵀ·G, and foldChannel, the
// exact adjoint of the forward's taps, adds each tap's whole block of
// cols into a padded channel of the same layout at the tap's offset, then
// writes the input pixels back out of it. The padding absorbs the taps
// that fall outside the image, so neither direction tests a range per
// element; the fold's adds, and at strides 1 and 2 both directions'
// copies, move whole rows on the vector lanes.

// ConvGeom describes the geometry of a 2-D convolution over a CHW tensor.
// ConvTaps builds both directions' plan from it, so the two always agree.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	K             int // square kernel size
	Stride        int
	Pad           int
}

// OutH returns the output height implied by the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width implied by the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// Validate reports an error for geometries that would produce an empty
// output or are otherwise malformed.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("conv geom: non-positive input dims %+v", g)
	}
	if g.K <= 0 || g.Stride <= 0 || g.Pad < 0 {
		return fmt.Errorf("conv geom: bad kernel/stride/pad %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("conv geom: empty output %+v", g)
	}
	return nil
}

// batchGeomCheck validates an [N,C,H,W] — or single-sample [C,H,W],
// treated as N=1 — operand against the conv geometry and returns N.
func batchGeomCheck(x *Tensor, g ConvGeom, op string) int {
	if x.Rank() == 3 && x.shape[0] == g.InC && x.shape[1] == g.InH && x.shape[2] == g.InW {
		return 1
	}
	if x.Rank() != 4 || x.shape[1] != g.InC || x.shape[2] != g.InH || x.shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: %s input %v, want [%d %d %d] or [N %d %d %d]", op, x.shape, g.InC, g.InH, g.InW, g.InC, g.InH, g.InW))
	}
	return x.shape[0]
}

// ConvTaps is the convolution plan of one geometry, for both directions:
// the layout of the zero-padded copy the forward reads its taps from, and
// a table of where each tap starts in it. The input gradient's fold adds
// each tap's gradient into a padded channel of the same layout at the
// same offsets. The plan depends only on the geometry, so a layer builds
// it once and reuses it on every call.
//
// The padded copy of a CHW sample is split, per channel, into Stride²
// polyphase sub-images, one per (row phase, column phase): padded pixel
// (y, x) — the input pixel (y − Pad, x − Pad), or +0 in the padding —
// lives in sub-image (y mod s, x mod s) at row y div s, column x div s.
// Each sub-image is Hq × Wq floats, just enough for the rows and columns
// the windows reach. At stride 1 there is one sub-image, the plain padded
// plane. Tap l = (c,ky,kx) of output position (oy,ox) then reads
//
//	xp[oy·Wq + ox + off[l]],  off[l] = ((c·s + ky mod s)·s + kx mod s)·Hq·Wq + (ky div s)·Wq + kx div s,
//
// so for a fixed tap, consecutive output columns read consecutive floats
// and consecutive output rows lie Wq floats apart, at every stride: every
// lane block of the forward reads each of its B rows in place, with no
// lowering, and a weight gradient can walk all of a sample's positions in
// one pass (ConvParamGradsInto). Positions q = oy·Wq + ox with ox ≥ OutW
// fall between two output rows and belong to no output.
type ConvTaps struct {
	g              ConvGeom
	off            []int32    // start of tap (c,ky,kx) in a padded sample
	phases         []colPhase // how each column phase gathers an input row, by ix0
	rowPhases      []rowPhase // where each row phase's input rows go, by phase
	hq, wq         int        // rows and columns of one polyphase sub-image
	inRows, inCols int        // the input rows and columns the grid reaches
	sampleLen      int        // floats per padded sample
}

// colPhase is one column phase's share of an input row: n input columns
// from ix0 on, every Stride-th, land at columns [j0, j0+n) of its
// sub-image row, which starts dst floats into the row phase's sub-images.
// n is 0 for a phase past the columns the grid reaches.
type colPhase struct{ ix0, j0, n, dst int }

// rowPhase is one row phase's share of the input rows: n input rows from
// iy0 on, every Stride-th, land in rows [yq0, yq0+n) of the phase's
// Stride sub-images (yq0 is 0 when n is 0).
type rowPhase struct{ iy0, yq0, n int }

// NewConvTaps builds the padded layout and offset table of a geometry. It
// panics on an invalid geometry, or one whose padded sample would not fit
// an int32 offset.
func NewConvTaps(g ConvGeom) *ConvTaps {
	if err := g.Validate(); err != nil {
		panic("tensor: NewConvTaps: " + err.Error())
	}
	k, s := g.K, g.Stride
	// The windows reach (Out−1)·s + K padded rows and columns.
	hq := ((g.OutH()-1)*s + k + s - 1) / s
	wq := ((g.OutW()-1)*s + k + s - 1) / s
	t := &ConvTaps{g: g, hq: hq, wq: wq, sampleLen: g.InC * s * s * hq * wq,
		inRows: max(0, min(g.InH, s*hq-g.Pad)), inCols: max(0, min(g.InW, s*wq-g.Pad))}
	if t.sampleLen > 1<<31-1 {
		panic(fmt.Sprintf("tensor: NewConvTaps: padded sample of %+v exceeds int32 offsets", g))
	}
	// Padded column x = ix + pad is column x div s of phase x mod s, so
	// the input columns ix0, ix0 + s, … that the grid reaches land in
	// phase (ix0 + pad) mod s: each phase has one ix0 < s.
	for ix0 := 0; ix0 < s; ix0++ {
		ph := (ix0 + g.Pad) % s
		n := max(0, (t.inCols-ix0+s-1)/s)
		t.phases = append(t.phases, colPhase{ix0: ix0, j0: min(wq, (ix0+g.Pad)/s), n: n, dst: ph * hq * wq})
	}
	// Likewise padded row y = iy + pad is row y div s of the sub-images
	// of row phase y mod s: each phase's rows start at one iy0 < s.
	for yp := 0; yp < s; yp++ {
		rp := rowPhase{iy0: ((yp-g.Pad)%s + s) % s}
		if rp.iy0 < t.inRows {
			rp.yq0, rp.n = (rp.iy0+g.Pad)/s, (t.inRows-rp.iy0+s-1)/s
		}
		t.rowPhases = append(t.rowPhases, rp)
	}
	t.off = make([]int32, 0, g.InC*k*k)
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				sub := (c*s+ky%s)*s + kx%s
				t.off = append(t.off, int32(sub*hq*wq+ky/s*wq+kx/s))
			}
		}
	}
	return t
}

// Geom returns the geometry the plan was built for.
func (t *ConvTaps) Geom() ConvGeom { return t.g }

// PaddedLen returns the number of floats in one padded sample.
func (t *ConvTaps) PaddedLen() int { return t.sampleLen }

// GridLen returns (OutH−1)·Wq + OutW: how many grid positions of a
// padded sample one output channel spans, from output (0,0) to
// (OutH−1, OutW−1). ConvParamGradsInto lays each (sample, channel)
// gradient out over that many floats.
func (t *ConvTaps) GridLen() int { return (t.g.OutH()-1)*t.wq + t.g.OutW() }

// padChannel writes one channel of the padded copy: dst holds its Stride²
// sub-images, src the channel's InH × InW input plane. Each input row the
// grid reaches is written to its polyphase position — a plain copy at
// stride 1, one pass per row phase that deals the even and odd columns
// out at stride 2 (deinterleave), one strided gather per column phase
// otherwise — and every other float gets +0: the padding, and the slots
// past the last padded row or column, so a reused buffer carries nothing
// stale. Each float is written once.
func (t *ConvTaps) padChannel(dst, src []float32) {
	g := t.g
	s, wq, sub, ph := g.Stride, t.wq, t.hq*t.wq, t.phases
	for yp, rp := range t.rowPhases {
		iy0, yq0, n := rp.iy0, rp.yq0, rp.n
		grp := dst[yp*s*sub:][:s*sub]
		// Sub-image rows outside [yq0, yq0+n) are padding, and so are the
		// columns outside a column phase's [j0, j0+n) of the rows inside.
		for _, cp := range ph {
			img := grp[cp.dst:][:sub]
			clear(img[:yq0*wq])
			clear(img[(yq0+n)*wq:])
			zeroCols(img[yq0*wq:(yq0+n)*wq], 0, cp.j0, wq)
			zeroCols(img[yq0*wq:(yq0+n)*wq], cp.j0+cp.n, wq, wq)
		}
		if n == 0 {
			continue
		}
		pr, in := grp[yq0*wq:], src[iy0*g.InW:]
		switch s {
		case 1:
			for r := range n {
				copy(pr[r*wq+ph[0].j0:][:ph[0].n], in[r*g.InW:])
			}
		case 2:
			deinterleave(pr[ph[0].dst+ph[0].j0:], pr[ph[1].dst+ph[1].j0:], in, n, ph[0].n, ph[1].n, wq, s*g.InW)
		default:
			for r := range n {
				for _, cp := range ph {
					d := pr[r*wq+cp.dst+cp.j0:][:cp.n]
					for j, ix := 0, r*s*g.InW+cp.ix0; j < len(d); j, ix = j+1, ix+s {
						d[j] = in[ix]
					}
				}
			}
		}
	}
}

// zeroCols writes +0 to columns [j0, j1) of every row of rows, whose rows
// are wq floats long: one strided store per row and column, where
// clearing whole rows would write each row twice.
func zeroCols(rows []float32, j0, j1, wq int) {
	for j := j0; j < j1; j++ {
		for r := j; r < len(rows); r += wq {
			rows[r] = 0
		}
	}
}

// padUnits writes units [u0, u1) of the padded copy xp of the batch x:
// unit u is channel u mod InC of sample u div InC. Units write disjoint
// channels, so any split of them is race-free.
func (t *ConvTaps) padUnits(xp, x []float32, u0, u1 int) {
	g := t.g
	plane, chanLen := g.InH*g.InW, t.sampleLen/g.InC
	for u := u0; u < u1; u++ {
		s, c := u/g.InC, u%g.InC
		t.padChannel(xp[s*t.sampleLen+c*chanLen:][:chanLen], x[u*plane:(u+1)*plane])
	}
}

// foldChannel is padChannel's adjoint: it folds one channel's tap-major
// gradient rows back into its input plane dst, through pc, one padded
// channel of scratch in the forward's layout. cols holds K·K rows of
// OutH·OutW elements, row ky·K+kx being the gradient of the pixels tap
// (ky,kx) read. pc is cleared, then each tap's whole OutH × OutW block is
// added in at the tap's offset — output row oy at oy·Wq, so one addRows
// call per tap — in ascending (ky,kx) order: every padded pixel sums the
// taps that read it in ascending tap order from +0, the order the per-tap
// references in the tensor and nn tests pin, and a tap that reads the
// padding adds into the padding, with no range test. A last pass writes
// the input pixels back out of the polyphase layout — a plain copy at
// stride 1, one pass per row phase that merges the even and odd columns
// at stride 2 (interleave), one strided scatter per column phase
// otherwise — with +0 for the pixels past the grid's reach, which no tap
// reads.
func (t *ConvTaps) foldChannel(dst, pc, cols []float32) {
	g := t.g
	s, wq, sub, ph := g.Stride, t.wq, t.hq*t.wq, t.phases
	outH, outW := g.OutH(), g.OutW()
	p := outH * outW
	clear(pc)
	for l, off := range t.off[:g.K*g.K] {
		addRows(pc[off:], cols[l*p:(l+1)*p], outH, outW, wq, outW)
	}
	for yp, rp := range t.rowPhases {
		iy0, yq0, n := rp.iy0, rp.yq0, rp.n
		if n == 0 {
			continue
		}
		pr, out := pc[yp*s*sub+yq0*wq:], dst[iy0*g.InW:]
		switch s {
		case 1:
			for r := range n {
				copy(out[r*g.InW:][:t.inCols], pr[r*wq+ph[0].j0:])
			}
		case 2:
			interleave(out, pr[ph[0].dst+ph[0].j0:], pr[ph[1].dst+ph[1].j0:], n, ph[0].n, ph[1].n, s*g.InW, wq)
		default:
			for r := range n {
				for _, cp := range ph {
					d := pr[r*wq+cp.dst+cp.j0:][:cp.n]
					for j, ix := 0, r*s*g.InW+cp.ix0; j < len(d); j, ix = j+1, ix+s {
						out[ix] = d[j]
					}
				}
			}
		}
	}
	if t.inCols < g.InW {
		for iy := range t.inRows {
			clear(dst[iy*g.InW+t.inCols : (iy+1)*g.InW])
		}
	}
	clear(dst[t.inRows*g.InW:])
}
