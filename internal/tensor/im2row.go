package tensor

import "fmt"

// Patch-major convolution lowering. Im2RowInto lowers an [N,C,H,W] tensor
// (or one CHW sample) into an (N·OutH·OutW) × (InC·K·K) patch matrix, so
// one MatMulKMajorInto against the (InC·K·K) × (OutC) transposed weight
// matrix serves the whole batch while the small weight operand stays
// cache-resident and the patches stream through exactly once. Each output
// element remains an ascending-k dot product, so batched convolution is
// bit-identical per frame to a single-sample call.

// ConvGeom describes the geometry of a 2-D convolution over a CHW tensor.
// It is shared by the forward Im2RowInto lowering and the backward
// Row2ImInto scatter so the two always agree.
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

// Im2RowInto unrolls the batched input x ([N,C,H,W], or a single [C,H,W]
// sample treated as N=1) into dst, which must have shape
// (N·OutH·OutW) × (InC·K·K): row n·OutH·OutW + oy·OutW + ox holds the
// receptive-field window of output position (oy,ox) of sample n. Every
// destination element is written (padding taps as 0), so dst's previous
// contents don't matter.
//
//advlint:noalloc
func Im2RowInto(dst, x *Tensor, g ConvGeom) {
	n := batchGeomCheck(x, g, "Im2RowInto")
	outH, outW := g.OutH(), g.OutW()
	p := outH * outW
	l := g.InC * g.K * g.K
	if dst.Rank() != 2 || dst.shape[0] != n*p || dst.shape[1] != l {
		panic(fmt.Sprintf("tensor: Im2RowInto dst %v, want [%d %d]", dst.shape, n*p, l))
	}
	im2rowRows(dst.data, x.data, g, 0, n*outH)
}

// im2rowRows lowers output rows [u0, u1) of a batch into the patch matrix
// pd, counting one unit per (sample, oy) pair: unit u is output row
// u mod OutH of sample u div OutH, and fills patch rows
// [u·OutW, (u+1)·OutW). Disjoint unit ranges write disjoint patch rows,
// which is what lets a row shard lower its own patches (Im2RowMatMulInto).
func im2rowRows(pd, xd []float32, g ConvGeom, u0, u1 int) {
	outH, outW := g.OutH(), g.OutW()
	p := outH * outW
	l := g.InC * g.K * g.K
	sampleLen := g.InC * g.InH * g.InW
	for u := u0; u < u1; {
		s, oy0 := u/outH, u%outH
		oy1 := min(outH, oy0+u1-u)
		im2rowSample(pd[s*p*l:(s+1)*p*l], xd[s*sampleLen:(s+1)*sampleLen], g, oy0, oy1, outW, l)
		u += oy1 - oy0
	}
}

// im2rowSample lowers output rows [oy0, oy1) of one CHW sample into its
// patch-major rows. The inner copy is split into left-border / interior /
// right-border segments so the common case (window fully inside the
// image) runs without per-tap bounds tests, and the K==3 interior is
// unrolled (most convs in this repository are 3×3).
func im2rowSample(pd, xd []float32, g ConvGeom, oy0, oy1, outW, l int) {
	k := g.K
	for oy := oy0; oy < oy1; oy++ {
		iy0 := oy*g.Stride - g.Pad
		rowBase := oy * outW * l
		for c := 0; c < g.InC; c++ {
			for ky := 0; ky < k; ky++ {
				iy := iy0 + ky
				off := (c*k + ky) * k
				if iy < 0 || iy >= g.InH {
					for ox := 0; ox < outW; ox++ {
						clear(pd[rowBase+ox*l+off : rowBase+ox*l+off+k])
					}
					continue
				}
				src := xd[(c*g.InH+iy)*g.InW : (c*g.InH+iy+1)*g.InW]
				ox := 0
				// Left border: the window starts before the image edge.
				for ; ox < outW; ox++ {
					ix := ox*g.Stride - g.Pad
					if ix >= 0 {
						break
					}
					dst := pd[rowBase+ox*l+off : rowBase+ox*l+off+k]
					for kx := range dst {
						if ix+kx < 0 || ix+kx >= g.InW {
							dst[kx] = 0
						} else {
							dst[kx] = src[ix+kx]
						}
					}
				}
				// Interior: the window is fully inside the row.
				if k == 3 {
					for ; ox < outW && ox*g.Stride-g.Pad+3 <= g.InW; ox++ {
						ix := ox*g.Stride - g.Pad
						dst := pd[rowBase+ox*l+off : rowBase+ox*l+off+3]
						s := src[ix : ix+3]
						dst[0], dst[1], dst[2] = s[0], s[1], s[2]
					}
				} else {
					for ; ox < outW && ox*g.Stride-g.Pad+k <= g.InW; ox++ {
						ix := ox*g.Stride - g.Pad
						copy(pd[rowBase+ox*l+off:rowBase+ox*l+off+k], src[ix:ix+k])
					}
				}
				// Right border: the window runs past the image edge.
				for ; ox < outW; ox++ {
					ix := ox*g.Stride - g.Pad
					dst := pd[rowBase+ox*l+off : rowBase+ox*l+off+k]
					for kx := range dst {
						if ix+kx >= g.InW {
							dst[kx] = 0
						} else {
							dst[kx] = src[ix+kx]
						}
					}
				}
			}
		}
	}
}

// Row2ImInto scatters a patch-major gradient matrix (the gradient of an
// Im2RowInto output, shape (N·OutH·OutW) × (InC·K·K)) back into the batched
// input gradient dst ([N,C,H,W], or a single [C,H,W] sample treated as
// N=1), accumulating where windows overlap. It is the exact adjoint of
// Im2RowInto, which is what backpropagation requires.
//
//advlint:noalloc
func Row2ImInto(dst, rows *Tensor, g ConvGeom) {
	n := batchGeomCheck(dst, g, "Row2ImInto")
	outH, outW := g.OutH(), g.OutW()
	p := outH * outW
	l := g.InC * g.K * g.K
	if rows.Rank() != 2 || rows.shape[0] != n*p || rows.shape[1] != l {
		panic(fmt.Sprintf("tensor: Row2ImInto rows %v, want [%d %d]", rows.shape, n*p, l))
	}
	dst.Zero()
	sampleLen := g.InC * g.InH * g.InW
	for s := 0; s < n; s++ {
		row2imSample(dst.data[s*sampleLen:(s+1)*sampleLen], rows.data[s*p*l:(s+1)*p*l], g, outH, outW, l)
	}
}

// row2imSample accumulates one sample's patch rows back into CHW storage.
// The loop nest runs (c,ky,kx) outer and (oy,ox) inner, so every input
// pixel receives its overlapping-window contributions in ascending tap
// order — the order the direct per-tap reference in the nn tests pins.
func row2imSample(xd, pd []float32, g ConvGeom, outH, outW, l int) {
	k := g.K
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				off := (c*k+ky)*k + kx
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride - g.Pad + ky
					if iy < 0 || iy >= g.InH {
						continue
					}
					srcRow := oy * outW
					dstRow := (c*g.InH + iy) * g.InW
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride - g.Pad + kx
						if ix < 0 || ix >= g.InW {
							continue
						}
						xd[dstRow+ix] += pd[(srcRow+ox)*l+off]
					}
				}
			}
		}
	}
}
