package tensor

import (
	"fmt"
	"math"
)

// The elementwise kernels: LeakyReLU in both directions, the conv forward's
// bias add, axpy and scale. Each rounds once per element and fuses
// nothing, so a vector form computes the same bits as the scalar loop as
// long as it keeps the loop's operand order: when both operands of an
// x86 add or multiply are NaN, the result carries the first source's
// payload. On the AVX2 and AVX-512 rungs the whole 8-float vectors run in
// assembly (elemLanes, elementwise_amd64.s); the loops below take the
// rest, and all of it on every other build.

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

// The scalar loops. Each computes alpha·v, v + b, s·x and t·s with the
// first source the amd64 listing shows (alpha, v, x and t; t first in
// axpy's add), which the vector kernels copy. Go treats float add and
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
