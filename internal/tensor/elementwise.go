package tensor

import (
	"fmt"
	"math"
)

// The elementwise kernels: LeakyReLU in both directions, the conv forward's
// bias add, axpy and scale, and the conv layout's data movement — the
// stride-2 split of an input row into its even and odd columns, its
// inverse merge, and the block add of the input-gradient fold. Each rounds
// once per element and fuses nothing, so a vector form computes the same
// bits as the scalar loop as long as it keeps the loop's operand order:
// when both operands of an x86 add or multiply are NaN, the result carries
// the first source's payload. The split and merge only move floats, so
// any permute is bit-safe. On the AVX2 and AVX-512 rungs the whole 8-float
// vectors run in assembly (elemLanes, splitLanes, mergeLanes and
// addRowsLanes, elementwise_amd64.s); the loops below take the rest, and
// all of it on every other build.

// elemOp names one elementwise kernel for elemLanes, in terms of its
// operands dst, x, y and s.
type elemOp int

const (
	elemLeaky     elemOp = iota // dst = s·x where x < 0, else x
	elemLeakyGrad               // dst = s·y where x ≤ 0, else y
	elemAddConst                // dst = x + s
	elemAxpy                    // dst += x·s
	elemScale                   // dst *= s
)

// LeakyReLUInto writes the LeakyReLU of x into dst: alpha·x where x < 0,
// else x, for a slope alpha that is finite and > 0 (so alpha·(−0) is −0,
// which the scalar loop's sign test relies on). The scalar loops of both
// directions pick on the bit pattern, without a branch: activation signs
// are close to random, so a branch mispredicts on about half the
// elements. ±0 and NaNs of either sign pass through unchanged.
//
//advlint:noalloc
func LeakyReLUInto(dst, x *Tensor, alpha float32) {
	if !(alpha > 0 && alpha <= math.MaxFloat32) {
		panic(fmt.Sprintf("tensor: LeakyReLUInto slope %v, want finite and > 0", alpha))
	}
	if dst.Len() != x.Len() {
		panic(fmt.Sprintf("tensor: LeakyReLUInto dst %v, x %v", dst.shape, x.shape))
	}
	leakyReLU(dst.data, x.data, alpha)
}

// LeakyReLUBackwardInto writes LeakyReLU's input gradient into dst from
// the layer's own output y and the output gradient g: alpha·g where y ≤ 0,
// else g. For a finite alpha > 0, y ≤ 0 exactly where the input was ≤ 0.
//
//advlint:noalloc
func LeakyReLUBackwardInto(dst, y, g *Tensor, alpha float32) {
	if dst.Len() != g.Len() || y.Len() != g.Len() {
		panic(fmt.Sprintf("tensor: LeakyReLUBackwardInto dst %v, y %v, g %v", dst.shape, y.shape, g.shape))
	}
	leakyReLUGrad(dst.data, y.data, g.data, alpha)
}

func leakyReLU(dst, x []float32, a float32) {
	n := elemLanes(elemLeaky, dst, x, nil, a)
	leakyReLUGo(dst[n:], x[n:], a)
}

func leakyReLUGrad(dst, y, g []float32, a float32) {
	n := elemLanes(elemLeakyGrad, dst, y, g, a)
	leakyReLUGradGo(dst[n:], y[n:], g[n:], a)
}

func addConst(dst, x []float32, b float32) {
	n := elemLanes(elemAddConst, dst, x, nil, b)
	addConstGo(dst[n:], x[n:], b)
}

func axpy(t, x []float32, s float32) {
	n := elemLanes(elemAxpy, t, x, nil, s)
	axpyGo(t[n:], x[n:], s)
}

func scale(t []float32, s float32) {
	n := elemLanes(elemScale, t, nil, nil, s)
	scaleGo(t[n:], s)
}

// deinterleave deals rows rows of in out into their even and odd columns,
// reading each row once: in[r·is + 2j] goes to even[r·ps + j] for j < ne
// and in[r·is + 2j + 1] to odd[r·ps + j] for j < no; ne is no or no + 1.
func deinterleave(even, odd, in []float32, rows, ne, no, ps, is int) {
	n := splitLanes(even, odd, in, rows, no, ps, is)
	if n == ne {
		return
	}
	for r := range rows {
		deinterleaveGo(even[r*ps+n:r*ps+ne], odd[r*ps+n:r*ps+no], in[r*is+2*n:])
	}
}

// interleave is deinterleave's inverse: it writes even[r·ps + j] to
// out[r·os + 2j] for j < ne and odd[r·ps + j] to out[r·os + 2j + 1] for
// j < no, the ne + no floats of each of the rows rows of out.
func interleave(out, even, odd []float32, rows, ne, no, os, ps int) {
	n := mergeLanes(out, even, odd, rows, no, os, ps)
	if n == ne {
		return
	}
	for r := range rows {
		interleaveGo(out[r*os+2*n:], even[r*ps+n:r*ps+ne], odd[r*ps+n:r*ps+no])
	}
}

// addRows adds a rows × cols block of src, whose rows lie ss floats apart,
// into dst, whose rows lie ds floats apart: dst[r·ds + i] += src[r·ss + i].
func addRows(dst, src []float32, rows, cols, ds, ss int) {
	n := addRowsLanes(dst, src, rows, cols, ds, ss)
	if n == cols {
		return
	}
	for r := range rows {
		addRowGo(dst[r*ds+n:r*ds+cols], src[r*ss+n:r*ss+cols])
	}
}

// The scalar loops. Each computes alpha·v, v + b, s·x and t·s with the
// first source the amd64 listing shows (alpha, v, x and t; t first in
// axpy's add), which the vector kernels copy; addRowGo keeps dst first
// whatever the listing. Go treats float add and
// multiply as commutative, so the first source is the register
// allocator's choice, not the source order: a bounds hint x = x[:len(t)]
// in axpyGo lets the compiler fold the load of t[i] into the add and
// makes the product the first source. TestElementwiseNaNOperandOrder
// checks the loops too.

// leakyReLUGo writes alpha·v where v < 0, else v.
func leakyReLUGo(dst, x []float32, a float32) {
	for i, v := range x[:len(dst)] {
		b := math.Float32bits(v)
		// All ones where v < 0: sign set and not NaN (−0·alpha is −0).
		m := uint32(int32(b)>>31) &^ nanMask(b)
		dst[i] = math.Float32frombits(b ^ (b^math.Float32bits(a*v))&m)
	}
}

// leakyReLUGradGo writes alpha·g where y ≤ 0, else g.
func leakyReLUGradGo(dst, y, g []float32, a float32) {
	y = y[:len(dst)]
	for i, v := range g[:len(dst)] {
		yb, b := math.Float32bits(y[i]), math.Float32bits(v)
		// All ones where y ≤ 0: sign set or +0, and not NaN.
		m := (uint32(int32(yb)>>31) | ^uint32(int32(yb|-yb)>>31)) &^ nanMask(yb)
		dst[i] = math.Float32frombits(b ^ (b^math.Float32bits(a*v))&m)
	}
}

// nanMask returns all ones when the float32 bit pattern b is a NaN, else 0.
func nanMask(b uint32) uint32 { return uint32(int32(0x7f800000-b&0x7fffffff) >> 31) }

// addConstGo writes x + b into dst.
func addConstGo(dst, x []float32, b float32) {
	for i, v := range x[:len(dst)] {
		dst[i] = v + b
	}
}

// axpyGo adds s·x into t.
func axpyGo(t, x []float32, s float32) {
	for i := range t {
		t[i] += float32(s * x[i]) // rounded product: no FMA on arm64
	}
}

// scaleGo multiplies t by s.
func scaleGo(t []float32, s float32) {
	for i := range t {
		t[i] *= s
	}
}

// deinterleaveGo is deinterleave's loop over one row.
func deinterleaveGo(even, odd, in []float32) {
	j := 0
	for ; j < len(odd); j++ {
		even[j], odd[j] = in[2*j], in[2*j+1]
	}
	if j < len(even) {
		even[j] = in[2*j]
	}
}

// interleaveGo is interleave's loop over one row.
func interleaveGo(out, even, odd []float32) {
	j := 0
	for ; j < len(odd); j++ {
		out[2*j], out[2*j+1] = even[j], odd[j]
	}
	if j < len(even) {
		out[2*j] = even[j]
	}
}

// addRowGo adds src into dst with dst as the first source, as in
// addRowsAVX2 and in the GEMM's accumulator-first add: where both are NaN
// the sum keeps dst's payload, the earlier taps'. Which source of a Go
// float add the compiler makes first is its own choice (a -race build
// flips this loop's), so a NaN dst is added to itself, which gives its
// payload, quieted, in either order.
func addRowGo(dst, src []float32) {
	for i, v := range src[:len(dst)] {
		d := dst[i]
		db, vb := math.Float32bits(d), math.Float32bits(v)
		dst[i] = d + math.Float32frombits(vb^(vb^db)&nanMask(db))
	}
}
