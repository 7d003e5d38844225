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
// The input gradient runs the other way round: MatMulCol2ImInto forms the
// tap-major cols = Wᵀ·G and col2imPlane, the exact adjoint of the
// forward's taps, folds each channel's K·K rows into its input plane
// reading every row contiguously.

// ConvGeom describes the geometry of a 2-D convolution over a CHW tensor.
// It is shared by the forward's tap table (ConvTaps) and the backward
// MatMulCol2ImInto fold so the two always agree.
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

// ConvTaps is the indirect-convolution plan of one geometry: the layout of
// the zero-padded copy the forward reads its taps from, and a table of
// where each tap starts in it. It depends only on the geometry, so a layer
// builds it once and reuses it on every call.
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
	g         ConvGeom
	off       []int32    // start of tap (c,ky,kx) in a padded sample
	phases    []colPhase // how each column phase gathers an input row
	hq, wq    int        // rows and columns of one polyphase sub-image
	sampleLen int        // floats per padded sample
}

// colPhase is one column phase's share of an input row: n input columns
// from ix0 on, every Stride-th, land at columns [j0, j0+n) of its
// sub-image row, which starts dst floats into the row phase's sub-images.
type colPhase struct{ ix0, j0, n, dst int }

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
	t := &ConvTaps{g: g, hq: hq, wq: wq, sampleLen: g.InC * s * s * hq * wq}
	if t.sampleLen > 1<<31-1 {
		panic(fmt.Sprintf("tensor: NewConvTaps: padded sample of %+v exceeds int32 offsets", g))
	}
	// Padded column x = ix + pad is column x div s of phase x mod s, so
	// the input columns ix0, ix0 + s, … of the ix1 that the grid reaches
	// land in phase (ix0 + pad) mod s. The phases are listed by ix0.
	ix1 := min(g.InW, s*wq-g.Pad)
	for ix0 := 0; ix0 < min(s, ix1); ix0++ {
		ph := (ix0 + g.Pad) % s
		t.phases = append(t.phases, colPhase{ix0: ix0, j0: (ix0 + g.Pad) / s, n: (ix1 - ix0 + s - 1) / s, dst: ph * hq * wq})
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
// sub-images, src the channel's InH × InW input plane. dst is cleared
// first — +0 in the padding and in the slots past the last padded row or
// column, so a reused buffer carries nothing stale — and then each input
// row the grid reaches is written to its polyphase position: a plain copy
// at stride 1, one pass that deals the even and odd columns out at stride
// 2, one strided gather per column phase otherwise.
func (t *ConvTaps) padChannel(dst, src []float32) {
	g := t.g
	s, sub := g.Stride, t.hq*t.wq
	clear(dst)
	// Padded row y = iy + pad is row yq of the sub-images of row phase yp.
	yp, yq := g.Pad%s, g.Pad/s
	for iy := 0; iy < min(g.InH, s*t.hq-g.Pad); iy++ {
		rows := dst[yp*s*sub+yq*t.wq:]
		in := src[iy*g.InW : (iy+1)*g.InW]
		switch ph := t.phases; {
		case s == 1:
			copy(rows[ph[0].j0:][:ph[0].n], in)
		case s == 2 && len(ph) == 2:
			deinterleave(rows[ph[0].dst+ph[0].j0:][:ph[0].n], rows[ph[1].dst+ph[1].j0:][:ph[1].n], in)
		default:
			for _, cp := range ph {
				d := rows[cp.dst+cp.j0:][:cp.n]
				for j, ix := 0, cp.ix0; j < len(d); j, ix = j+1, ix+s {
					d[j] = in[ix]
				}
			}
		}
		if yp++; yp == s {
			yp, yq = 0, yq+1
		}
	}
}

// deinterleave writes in[2j] to even[j] and in[2j+1] to odd[j], reading
// in once; even holds as many columns as odd or one more.
func deinterleave(even, odd, in []float32) {
	j := 0
	for ; j < len(odd); j++ {
		even[j], odd[j] = in[2*j], in[2*j+1]
	}
	if j < len(even) {
		even[j] = in[2*j]
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

// col2imPlane folds one channel's tap-major gradient rows back into its
// input plane: rows holds K·K rows of OutH·OutW elements, row ky·K+kx
// being the gradient of the pixels tap (ky,kx) read. The plane is cleared
// first, then the taps run (ky,kx) outer and the output positions inner,
// so every pixel sums its overlapping-window contributions in ascending
// tap order from +0 — the order the per-tap references in the tensor and
// nn tests pin. Each tap's valid output range is found once, so the inner
// loops read a row contiguously with no per-element padding tests.
func col2imPlane(plane, rows []float32, g ConvGeom) {
	k, s := g.K, g.Stride
	outH, outW := g.OutH(), g.OutW()
	clear(plane)
	for ky := 0; ky < k; ky++ {
		oy0, oy1 := tapRange(ky, g.Pad, s, g.InH, outH)
		for kx := 0; kx < k; kx++ {
			ox0, ox1 := tapRange(kx, g.Pad, s, g.InW, outW)
			if ox0 >= ox1 {
				continue
			}
			row := rows[(ky*k+kx)*outH*outW:]
			for oy := oy0; oy < oy1; oy++ {
				dst := plane[(oy*s-g.Pad+ky)*g.InW:]
				src := row[oy*outW+ox0 : oy*outW+ox1]
				ix := ox0*s - g.Pad + kx
				if s == 1 {
					dst = dst[ix : ix+len(src)]
					for i, v := range src {
						dst[i] += v
					}
					continue
				}
				for _, v := range src {
					dst[ix] += v
					ix += s
				}
			}
		}
	}
}

// tapRange returns the output positions [o0, o1) whose tap at offset t
// (of a stride-s window starting at o·s − pad) lands inside [0, in).
func tapRange(t, pad, s, in, out int) (o0, o1 int) {
	last := in - 1 + pad - t // the largest o·s whose tap lands inside
	if last < 0 {
		return 0, 0
	}
	if d := pad - t; d > 0 {
		o0 = (d + s - 1) / s
	}
	return o0, max(o0, min(out, last/s+1))
}
