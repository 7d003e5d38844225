//go:build amd64 && !noasm

package tensor

// The AVX2 elementwise kernels, implemented in elementwise_amd64.s. Each
// takes a length n > 0, a multiple of 8 (the row kernels: rows > 0 rows
// of n, cols for addRowsAVX2), and runs one 8-float vector, or a pair of
// them, per step with the scalar loop's operations and operand order, so
// each lane computes the loop's bits. The AVX2 and AVX-512 rungs both run
// them.

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

//go:noescape
func deinterleaveAVX2(even, odd, in *float32, rows, n, ps, is int)

//go:noescape
func interleaveAVX2(out, even, odd *float32, rows, n, os, ps int)

//go:noescape
func addRowsAVX2(dst, src *float32, rows, cols, ds, ss int)

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

// splitLanes deinterleaves the first n pairs of each of the rows rows of
// in into even and odd, n being the whole 8-float vectors of no, on the
// AVX2 and AVX-512 rungs, and returns n; deinterleave's loop does the
// rest.
func splitLanes(even, odd, in []float32, rows, no, ps, is int) int {
	n := no &^ 7
	if rung < rungAVX2 || n == 0 || rows == 0 {
		return 0
	}
	deinterleaveAVX2(&even[:(rows-1)*ps+n][0], &odd[:(rows-1)*ps+n][0], &in[:(rows-1)*is+2*n][0], rows, n, ps, is)
	return n
}

// mergeLanes interleaves the first n floats of each row of even and odd
// into out, n being the whole 8-float vectors of no, on the AVX2 and
// AVX-512 rungs, and returns n; interleave's loop does the rest.
func mergeLanes(out, even, odd []float32, rows, no, os, ps int) int {
	n := no &^ 7
	if rung < rungAVX2 || n == 0 || rows == 0 {
		return 0
	}
	interleaveAVX2(&out[:(rows-1)*os+2*n][0], &even[:(rows-1)*ps+n][0], &odd[:(rows-1)*ps+n][0], rows, n, os, ps)
	return n
}

// addRowsLanes adds the whole 8-float vectors of each of the rows of a
// rows × cols block on the AVX2 and AVX-512 rungs and returns how many
// columns of each row it did; addRows' loop does the rest.
func addRowsLanes(dst, src []float32, rows, cols, ds, ss int) int {
	n := cols &^ 7
	if rung < rungAVX2 || n == 0 || rows == 0 {
		return 0
	}
	addRowsAVX2(&dst[:(rows-1)*ds+n][0], &src[:(rows-1)*ss+n][0], rows, n, ds, ss)
	return n
}
