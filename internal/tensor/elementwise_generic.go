//go:build noasm || !amd64

package tensor

// Builds without the AVX2 elementwise kernels — the noasm tag, arm64 and
// every other platform — run the scalar loops in elementwise.go alone.

// elemLanes reports that no vector kernel ran: 0 elements done.
func elemLanes(op elemOp, dst, x, y []float32, s float32) int { return 0 }
