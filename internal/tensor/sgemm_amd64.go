//go:build amd64 && !noasm

package tensor

// Kernel selection for the k-major SGEMM on amd64. SSE2 is part of the
// amd64 baseline (GOAMD64=v1) so the 4-wide kernel is always available;
// the 8-wide AVX2 and 16- and 32-wide AVX-512 kernels are enabled by a
// one-time CPUID+XGETBV probe at package init (or unconditionally when the
// binary is compiled with GOAMD64=v3 / v4, which guarantee AVX2 / AVX-512
// respectively). The choice is made exactly once and depends only on the
// CPU, never on GOMAXPROCS or operand values, so a given product always
// runs the same kernel — and since every kernel performs the identical
// ascending-k per-lane accumulation, the choice is a pure throughput
// decision anyway.
//
// Escape hatches: build with -tags noasm to drop all assembly (pure-Go
// lane kernel, still bit-identical), or GOAMD64=v3/v4 to skip the runtime
// probe.

// cpuid and xgetbv0 are implemented in cpuid_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether the CPU supports AVX2 and the OS saves the YMM
// state (OSXSAVE + XCR0 bits 1-2), the standard gate before executing any
// VEX-256 instruction.
func hasAVX2() bool {
	if compileTimeAVX2 {
		return true
	}
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// hasAVX512 reports whether the CPU and OS support the GOAMD64=v4 AVX-512
// feature set (F+BW+CD+DQ+VL — the ZMM kernels themselves need only F:
// they zero with VPXORQ, not the DQ VXORPS) and the OS saves the full
// AVX-512 state (XCR0 opmask + ZMM bits on top of XMM/YMM). Matching the
// v4 set keeps the runtime probe and the compile-time tag equivalent.
func hasAVX512() bool {
	if compileTimeAVX512 {
		return true
	}
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	// XMM|YMM (bits 1-2) plus opmask|ZMM_hi256|hi16_ZMM (bits 5-7).
	if xlo, _ := xgetbv0(); xlo&0xe6 != 0xe6 {
		return false
	}
	const need = 1<<16 | 1<<17 | 1<<28 | 1<<30 | 1<<31 // F, DQ, CD, BW, VL
	_, b7, _, _ := cpuid(7, 0)
	return b7&need == need
}

// The lane kernels, implemented in sgemm_amd64.s. Each computes
// c[i][0:w] = Σ_l a[i][l]·B[l][0:w] for i in [0,m) — any m, rows in
// blocks of 4 plus a single-row tail (32 columns: blocks of 4, then 2,
// then 1) — with bk and c pre-offset to the column block and c using row
// stride n floats. B row l is bk + l·n in the strided kernels and
// bk + off[l] in the *Taps kernels, which share each rung's loop body.
// Accumulation is strictly ascending l with separate mul/add roundings
// per step: bit-identical to the scalar kernels.

//go:noescape
func sgemm4cols(a, bk, c *float32, m, k, n int)

//go:noescape
func sgemm8colsAVX2(a, bk, c *float32, m, k, n int)

//go:noescape
func sgemm16colsAVX512(a, bk, c *float32, m, k, n int)

//go:noescape
func sgemm32colsAVX512(a, bk, c *float32, m, k, n int)

//go:noescape
func sgemm4colsTaps(a, bk, c *float32, m, k, n int, off *int32)

//go:noescape
func sgemm8colsAVX2Taps(a, bk, c *float32, m, k, n int, off *int32)

//go:noescape
func sgemm16colsAVX512Taps(a, bk, c *float32, m, k, n int, off *int32)

//go:noescape
func sgemm32colsAVX512Taps(a, bk, c *float32, m, k, n int, off *int32)

// The amd64 rungs, in ascending width: which one init selected.
const (
	rungSSE2 = iota
	rungAVX2
	rungAVX512
)

var rung = rungSSE2

func init() {
	switch {
	case hasAVX512() && hasAVX2():
		rung, widest, kmajorKernelName = rungAVX512, 32, "avx512"
	case hasAVX2():
		rung, kmajorKernelName = rungAVX2, "avx2"
	default:
		widest, kmajorKernelName = 4, "sse2"
	}
}

// asmLanes runs the w-column lane kernel of the selected rung, in its
// strided form (off nil) or its table form, and reports whether one ran.
// The kernels are called directly rather than through function values, so
// escape analysis sees their go:noescape operands: a caller's stack buffer
// stays on the stack. Every amd64 rung has the SSE2 4-column kernel; AVX2
// adds 8, and AVX-512 uses the AVX2 one for 8 and adds 16 and 32. No
// block wider than the rung's widest reaches asmLanes.
func asmLanes(w int, a, b, c *float32, m, k, n int, off *int32) bool {
	switch {
	case w == 32 && off == nil:
		sgemm32colsAVX512(a, b, c, m, k, n)
	case w == 32:
		sgemm32colsAVX512Taps(a, b, c, m, k, n, off)
	case w == 16 && off == nil:
		sgemm16colsAVX512(a, b, c, m, k, n)
	case w == 16:
		sgemm16colsAVX512Taps(a, b, c, m, k, n, off)
	case w == 8 && off == nil:
		sgemm8colsAVX2(a, b, c, m, k, n)
	case w == 8:
		sgemm8colsAVX2Taps(a, b, c, m, k, n, off)
	case w == 4 && off == nil:
		sgemm4cols(a, b, c, m, k, n)
	case w == 4:
		sgemm4colsTaps(a, b, c, m, k, n, off)
	default:
		return false
	}
	return true
}
