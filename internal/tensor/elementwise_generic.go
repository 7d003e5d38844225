//go:build noasm || !amd64

package tensor

// Builds without the AVX2 elementwise kernels — the noasm tag, arm64 and
// every other platform — run the scalar loops in elementwise.go alone.

// elemLanes reports that no vector kernel ran: 0 elements done.
func elemLanes(op elemOp, dst, x, y []float32, s float32) int { return 0 }

// splitLanes reports that no vector kernel ran.
func splitLanes(even, odd, in []float32, rows, no, ps, is int) int { return 0 }

// mergeLanes reports that no vector kernel ran.
func mergeLanes(out, even, odd []float32, rows, no, os, ps int) int { return 0 }

// addRowsLanes reports that no vector kernel ran.
func addRowsLanes(dst, src []float32, rows, cols, ds, ss int) int { return 0 }
