//go:build noasm || !(amd64 || arm64)

package tensor

// Builds without a matching assembly rung — the noasm tag, or a platform
// other than amd64 and arm64 — run every lane block on the pure-Go kernel
// (kmajorColsGeneric), which computes the same bits.

// asmLanes reports that no assembly kernel ran.
func asmLanes(w int, a, b, c *float32, m, k, n int, off *int32) bool { return false }
