//go:build arm64 && !noasm

package tensor

// Kernel selection for the k-major SGEMM on arm64. NEON (AdvSIMD) is part
// of the arm64 baseline, so the 4-wide lane kernel is always available and
// no runtime probe is needed: init selects it unconditionally. With widest
// set to 4, the driver tiles the product into 4-column blocks (it skips
// the 8-wide generic path when a native 4-wide kernel exists), keeping
// every block on SIMD.
//
// The kernel keeps multiply and add as separate instructions — FMUL then
// FADD, never the fused FMLA — so each lane performs the same two float32
// roundings per k step as the amd64 and pure-Go rungs: results are
// bit-identical across every ladder rung. Build with -tags noasm to fall
// back to the pure-Go lane kernel.

//go:noescape
func sgemmNeon4cols(a, bk, c *float32, m, k, n int)

// sgemmNeon4colsTaps is sgemmNeon4cols with B row l read at bk + off[l]
// (the indirect conv forward's tap table); both share one loop body.
//
//go:noescape
func sgemmNeon4colsTaps(a, bk, c *float32, m, k, n int, off *int32)

func init() {
	widest, kmajorKernelName = 4, "neon"
}

// asmLanes runs the 4-column NEON kernel, in its strided form (off nil) or
// its table form, and reports whether it ran: wider blocks never reach it,
// since widest is 4. The kernels are called directly rather than through
// function values, so escape analysis sees their go:noescape operands.
func asmLanes(w int, a, b, c *float32, m, k, n int, off *int32) bool {
	switch {
	case w != 4:
		return false
	case off == nil:
		sgemmNeon4cols(a, b, c, m, k, n)
	default:
		sgemmNeon4colsTaps(a, b, c, m, k, n, off)
	}
	return true
}
