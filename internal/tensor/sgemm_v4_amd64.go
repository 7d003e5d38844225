//go:build amd64.v4 && !noasm

package tensor

// GOAMD64=v4 guarantees the full AVX-512 F+BW+CD+DQ+VL set (and therefore
// AVX2), so both runtime probes are skipped entirely and init selects the
// 32-wide ZMM kernel (stepping down to the 16-wide one) unconditionally.
const (
	compileTimeAVX2   = true
	compileTimeAVX512 = true
)
