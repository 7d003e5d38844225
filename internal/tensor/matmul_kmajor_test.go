package tensor

import (
	"os"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// TestKMajorKernelExpectedRung asserts KMajorKernel() reports a rung from
// the comma-separated WANT_KMAJOR_KERNEL environment variable, and skips
// when the variable is unset. The CI kernel-ladder job sets it per leg —
// "generic" under -tags noasm, "avx2,avx512" under GOAMD64=v3 (v3
// guarantees AVX2 but the runtime probe may still find AVX-512) — so a
// dispatch bug that silently drops to a lower rung fails the build
// instead of just running slower.
func TestKMajorKernelExpectedRung(t *testing.T) {
	want := os.Getenv("WANT_KMAJOR_KERNEL")
	if want == "" {
		t.Skipf("WANT_KMAJOR_KERNEL unset; dispatched kernel is %q", KMajorKernel())
	}
	got := KMajorKernel()
	for _, w := range strings.Split(want, ",") {
		if got == strings.TrimSpace(w) {
			return
		}
	}
	t.Fatalf("KMajorKernel() = %q, want one of %q", got, want)
}

// naiveKMajor is the reference: one ascending-l scalar dot per element,
// exactly the accumulation order every kernel in the package must honour.
// Each product is rounded before it is added (float32 conversion), so the
// reference stays unfused on platforms where Go would form an FMA.
func naiveKMajor(a, bk *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := bk.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += float32(a.At(i, l) * bk.At(l, j))
			}
			c.Set(s, i, j)
		}
	}
	return c
}

// TestMatMulKMajorBitIdentical pins the SIMD driver (assembly on amd64,
// pure Go elsewhere) and the generic lane kernel to the naive ascending-dot
// reference, across row/column tails and both tile widths.
func TestMatMulKMajorBitIdentical(t *testing.T) {
	rng := xrand.New(51)
	shapes := [][3]int{
		{4, 8, 8},    // exact 4x8 tile
		{8, 27, 12},  // conv1 shape: 8-block plus 4-block
		{12, 16, 24}, // multiple 8-blocks
		{5, 9, 11},   // row and column tails
		{3, 7, 4},    // rows below the tile height
		{16, 1, 8},   // k=1
		{1024, 27, 12},
		{8, 2048, 48},   // batched linear shape
		{1, 2048, 48},   // single-frame linear gemv (assembly single-row tail)
		{1, 48, 2048},   // its backward input-gradient shape
		{2, 5, 9},       // sub-block rows with a scalar column tail
		{1024, 108, 24}, // single-frame conv2 patch product
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := New(m, k)
		rng.FillUniform(a.Data(), -2, 2)
		bk := New(k, n)
		rng.FillUniform(bk.Data(), -2, 2)
		// Sprinkle exact zeros so zero-skip paths are exercised too.
		a.Data()[0] = 0
		bk.Data()[n/2] = 0

		want := naiveKMajor(a, bk)
		got := New(m, n)
		got.Fill(99)
		MatMulKMajorInto(got, a, bk)
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("m=%d k=%d n=%d: kmajor diverges at %d: %v vs %v", m, k, n, i, got.Data()[i], want.Data()[i])
			}
		}

		// The generic lane kernel must agree bit for bit with whatever the
		// driver used (on amd64, that cross-checks the assembly).
		gen := New(m, n)
		j := 0
		for ; j+8 <= n; j += 8 {
			kmajorColsGeneric(gen.Data()[j:], a.Data(), bk.Data()[j:], nil, m, 8, k, n)
		}
		for ; j+4 <= n; j += 4 {
			kmajorColsGeneric(gen.Data()[j:], a.Data(), bk.Data()[j:], nil, m, 4, k, n)
		}
		if j < n {
			kmajorScalar(gen.Data()[j:], a.Data(), bk.Data()[j:], nil, m, n-j, k, n)
		}
		for i := range want.Data() {
			if gen.Data()[i] != want.Data()[i] {
				t.Fatalf("m=%d k=%d n=%d: generic lane kernel diverges at %d", m, k, n, i)
			}
		}
	}
}

// TestMatMulKMajorIntoAllocs keeps the kernel allocation-free.
func TestMatMulKMajorIntoAllocs(t *testing.T) {
	rng := xrand.New(52)
	a := New(16, 27)
	rng.FillUniform(a.Data(), -1, 1)
	bk := New(27, 12)
	rng.FillUniform(bk.Data(), -1, 1)
	c := New(16, 12)
	if avg := testing.AllocsPerRun(50, func() { MatMulKMajorInto(c, a, bk) }); avg != 0 {
		t.Fatalf("MatMulKMajorInto allocates %.2f/op, want 0", avg)
	}
}
