package tensor

import "fmt"

// Convolution lowering. Im2RowInto lowers an [N,C,H,W] tensor (or one CHW
// sample) into an (N·OutH·OutW) × (InC·K·K) patch matrix, so one
// MatMulKMajorInto against the (InC·K·K) × (OutC) transposed weight
// matrix serves the whole batch while the small weight operand stays
// cache-resident and the patches stream through exactly once. Each output
// element remains an ascending-k dot product, so batched convolution is
// bit-identical per frame to a single-sample call.
//
// The backward runs the other way round, tap-major: MatMulCol2ImInto
// forms cols = Wᵀ·G, one row of output positions per (channel, ky, kx)
// tap, and col2imPlane folds each channel's K·K rows into its input plane
// reading every row contiguously.

// ConvGeom describes the geometry of a 2-D convolution over a CHW tensor.
// It is shared by the forward Im2RowInto lowering and the backward
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
