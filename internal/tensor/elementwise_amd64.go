//go:build amd64 && !noasm

package tensor

// The AVX2 elementwise kernels, implemented in elementwise_amd64.s. Each
// takes n > 0, a multiple of 8, and runs one 8-float vector per step with
// the scalar loop's operations and operand order, so each lane computes
// the loop's bits. The AVX2 and AVX-512 rungs both run them.

//go:noescape
func leakyReLUAVX2(dst, x *float32, a float32, n int)

//go:noescape
func leakyReLUGradAVX2(dst, y, dy *float32, a float32, n int)

//go:noescape
func addConstAVX2(dst, x *float32, b float32, n int)

//go:noescape
func axpyAVX2(t, x *float32, s float32, n int)

//go:noescape
func scaleAVX2(t *float32, s float32, n int)

// elemLanes runs op's vector kernel over the whole 8-float vectors of dst
// on the AVX2 and AVX-512 rungs and reports how many elements it did; the
// caller's scalar loop does the rest. The kernels are called directly, so
// escape analysis sees their go:noescape operands.
func elemLanes(op elemOp, dst, x, y []float32, s float32) int {
	n := len(dst) &^ 7
	if rung < rungAVX2 || n == 0 {
		return 0
	}
	switch op {
	case elemLeaky:
		leakyReLUAVX2(&dst[0], &x[:n][0], s, n)
	case elemLeakyGrad:
		leakyReLUGradAVX2(&dst[0], &x[:n][0], &y[:n][0], s, n)
	case elemAddConst:
		addConstAVX2(&dst[0], &x[:n][0], s, n)
	case elemAxpy:
		axpyAVX2(&dst[0], &x[:n][0], s, n)
	case elemScale:
		scaleAVX2(&dst[0], s, n)
	}
	return n
}
