package tensor

import "fmt"

// Convolution lowering, one layout for both directions: tap-major. The
// lowering of a CHW sample is the (InC·K·K) × (OutH·OutW) matrix cols
// whose row (c,ky,kx) holds the pixel that tap reads at every output
// position (0 in the padding).
//
// The forward (Im2ColMatMulInto) computes out = W·cols per sample: an
// OutC × (OutH·OutW) product that lands in CHW with the output positions
// on the SIMD lanes. im2colRows writes the lowering row by row — one copy
// per tap and output row at stride 1. Each output element remains an
// ascending-(c,ky,kx) dot, so batched convolution is bit-identical per
// frame to a single-sample call.
//
// The input gradient runs the other way round: MatMulCol2ImInto forms
// cols = Wᵀ·G and col2imPlane, the exact adjoint of im2colRows, folds
// each channel's K·K rows into its input plane reading every row
// contiguously.

// ConvGeom describes the geometry of a 2-D convolution over a CHW tensor.
// It is shared by the forward Im2ColMatMulInto lowering and the backward
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

// im2colRows lowers output rows [oy0, oy1) of one CHW sample into its
// tap-major lowering cols, (InC·K·K) × (OutH·OutW): row (c,ky,kx) holds, at
// columns [oy0·OutW, oy1·OutW), the pixel tap (ky,kx) reads at each of
// those output positions, 0 in the padding — the exact adjoint of
// col2imPlane. Each input row a (c,ky) tap row reads is lowered by one
// im2colRow call. Disjoint row ranges write disjoint column bands, which
// is what lets a forward shard lower its own band (im2colUnits).
func im2colRows(cols, xd []float32, g ConvGeom, oy0, oy1 int) {
	k, outW := g.K, g.OutW()
	p := g.OutH() * outW
	// Output columns [in0, in1) read every tap of their window inside the
	// input row; only the columns outside it test each tap.
	in0, _ := tapRange(0, g.Pad, g.Stride, g.InW, outW)
	_, in1 := tapRange(k-1, g.Pad, g.Stride, g.InW, outW)
	in0 = min(in0, outW)
	in1 = max(in1, in0)
	plane := g.InH * g.InW
	for ch := 0; ch < g.InC; ch++ {
		for ky := 0; ky < k; ky++ {
			taps := cols[(ch*k+ky)*k*p : (ch*k+ky+1)*k*p]
			for oy := oy0; oy < oy1; oy++ {
				iy := oy*g.Stride - g.Pad + ky
				if iy < 0 || iy >= g.InH {
					for kx := 0; kx < k; kx++ {
						clear(taps[kx*p+oy*outW : kx*p+(oy+1)*outW])
					}
					continue
				}
				src := xd[ch*plane+iy*g.InW : ch*plane+(iy+1)*g.InW]
				im2colRow(taps[oy*outW:], src, g, p, outW, in0, in1)
			}
		}
	}
}

// im2colRow writes the K taps (ky fixed, kx = 0…K−1) of one output row
// from the input row src they read: tap kx's OutW values go to
// dst[kx·p : kx·p+OutW]. Border columns test each tap; the interior
// [in0, in1) is one copy per tap at stride 1, and at larger strides one
// pass over the windows that scatters each window's K values to the K tap
// rows.
func im2colRow(dst, src []float32, g ConvGeom, p, outW, in0, in1 int) {
	k, s, pad := g.K, g.Stride, g.Pad
	for ox := 0; ox < in0; ox++ {
		for kx := 0; kx < k; kx++ {
			dst[kx*p+ox] = tapAt(src, ox*s-pad+kx)
		}
	}
	for ox := in1; ox < outW; ox++ {
		for kx := 0; kx < k; kx++ {
			dst[kx*p+ox] = tapAt(src, ox*s-pad+kx)
		}
	}
	if in0 == in1 {
		return
	}
	ix := in0*s - pad
	switch {
	case s == 1:
		for kx := 0; kx < k; kx++ {
			copy(dst[kx*p+in0:kx*p+in1], src[ix+kx:])
		}
	case k == 3 && s == 2:
		// Neighbouring windows share a pixel, so each step reads the five
		// pixels of two windows: every strided conv in the models is K=3
		// stride 2, and this halves their lowering against the general
		// loop below (BenchmarkIm2ColStride2).
		d0 := dst[in0:in1]
		d1 := dst[p+in0 : p+in1][:len(d0)]
		d2 := dst[2*p+in0 : 2*p+in1][:len(d0)]
		i := 0
		for ; i+1 < len(d0); i, ix = i+2, ix+4 {
			w := src[ix : ix+5]
			d0[i], d1[i], d2[i] = w[0], w[1], w[2]
			d0[i+1], d1[i+1], d2[i+1] = w[2], w[3], w[4]
		}
		if i < len(d0) {
			w := src[ix : ix+3]
			d0[i], d1[i], d2[i] = w[0], w[1], w[2]
		}
	default:
		for ox := in0; ox < in1; ox, ix = ox+1, ix+s {
			for kx, v := range src[ix : ix+k] {
				dst[kx*p+ox] = v
			}
		}
	}
}

// tapAt is src[ix], or 0 where ix falls in the padding.
func tapAt(src []float32, ix int) float32 {
	if ix < 0 || ix >= len(src) {
		return 0
	}
	return src[ix]
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
