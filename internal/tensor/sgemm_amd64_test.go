//go:build amd64 && !noasm

package tensor

import (
	"testing"

	"repro/internal/xrand"
)

// TestSGEMMKernelsAgree cross-checks every assembly lane kernel directly
// against the pure-Go lane kernel, independent of which one init selected:
// the SSE2 8- and 4-column kernels, and — when the CPU supports them — the
// AVX2 8-column and AVX-512 16-column kernels. This is the ladder's
// bit-identity proof: a machine that dispatches AVX-512 certifies AVX2 and
// SSE2 in the same run and vice versa. (The NEON rung is pinned the same
// way on arm64: its 4-wide lane semantics are exactly kmajorColsGeneric
// with w=4, which this test certifies against the assembly here.)
func TestSGEMMKernelsAgree(t *testing.T) {
	t.Logf("dispatched kernel: %s", KMajorKernel())
	rng := xrand.New(97)
	shapes := [][2]int{{1, 3}, {2, 7}, {3, 16}, {4, 1}, {5, 9}, {8, 27}, {13, 64}, {1, 2048}}
	for _, s := range shapes {
		m, k := s[0], s[1]
		const n = 16 // one 16-column block; the narrower kernels use its prefix
		a := New(m, k)
		rng.FillUniform(a.Data(), -2, 2)
		bk := New(k, n)
		rng.FillUniform(bk.Data(), -2, 2)

		want := New(m, n)
		kmajorColsGeneric(want.Data(), a.Data(), bk.Data(), nil, m, 8, k, n)

		got := New(m, n)
		sgemm8cols(&a.Data()[0], &bk.Data()[0], &got.Data()[0], m, k, n)
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("sse2 8-col m=%d k=%d diverges at %d: %v vs %v", m, k, i, got.Data()[i], want.Data()[i])
			}
		}

		want4 := New(m, n)
		kmajorColsGeneric(want4.Data(), a.Data(), bk.Data(), nil, m, 4, k, n)
		got4 := New(m, n)
		sgemm4cols(&a.Data()[0], &bk.Data()[0], &got4.Data()[0], m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < 4; j++ {
				if got4.Data()[i*n+j] != want4.Data()[i*n+j] {
					t.Fatalf("sse2 4-col m=%d k=%d diverges at (%d,%d)", m, k, i, j)
				}
			}
		}

		if hasAVX2() {
			gotV := New(m, n)
			sgemm8colsAVX2(&a.Data()[0], &bk.Data()[0], &gotV.Data()[0], m, k, n)
			for i := range want.Data() {
				if gotV.Data()[i] != want.Data()[i] {
					t.Fatalf("avx2 8-col m=%d k=%d diverges at %d: %v vs %v", m, k, i, gotV.Data()[i], want.Data()[i])
				}
			}
		}

		if hasAVX512() {
			// The 16-column reference is two adjacent 8-column generic
			// blocks — lanes are independent, so the pairing is exact.
			want16 := New(m, n)
			kmajorColsGeneric(want16.Data(), a.Data(), bk.Data(), nil, m, 8, k, n)
			kmajorColsGeneric(want16.Data()[8:], a.Data(), bk.Data()[8:], nil, m, 8, k, n)
			got16 := New(m, n)
			sgemm16colsAVX512(&a.Data()[0], &bk.Data()[0], &got16.Data()[0], m, k, n)
			for i := range want16.Data() {
				if got16.Data()[i] != want16.Data()[i] {
					t.Fatalf("avx512 16-col m=%d k=%d diverges at %d: %v vs %v", m, k, i, got16.Data()[i], want16.Data()[i])
				}
			}
		}
	}
}

// TestSGEMMTapKernelsAgree cross-checks the table form of every assembly
// rung against the pure-Go lane kernel reading the same table: B row l
// starts at off[l], here scattered out of order and overlapping, as the
// indirect conv forward's taps do.
func TestSGEMMTapKernelsAgree(t *testing.T) {
	rng := xrand.New(98)
	for _, s := range [][2]int{{1, 3}, {2, 7}, {3, 16}, {4, 1}, {5, 9}, {8, 27}, {13, 64}, {1, 300}} {
		m, k := s[0], s[1]
		const n = 16
		a := New(m, k)
		rng.FillUniform(a.Data(), -2, 2)
		b := New(k+1, n)
		rng.FillUniform(b.Data(), -2, 2)
		off := make([]int32, k)
		for l := range off {
			off[l] = int32((l*7)%k*n + l%5)
		}
		check := func(name string, w int, kern func(a, bk, c *float32, m, k, n int, off *int32)) {
			t.Helper()
			want := New(m, n)
			for j := 0; j < w; j += 8 {
				kmajorColsGeneric(want.Data()[j:], a.Data(), b.Data()[j:], off, m, min(8, w), k, n)
			}
			got := New(m, n)
			kern(&a.Data()[0], &b.Data()[0], &got.Data()[0], m, k, n, &off[0])
			sameBits(t, name+" m="+itoa(m)+" k="+itoa(k), got.Data(), want.Data())
		}
		check("sse2 8-col taps", 8, sgemm8colsTaps)
		check("sse2 4-col taps", 4, sgemm4colsTaps)
		if hasAVX2() {
			check("avx2 8-col taps", 8, sgemm8colsAVX2Taps)
		}
		if hasAVX512() {
			check("avx512 16-col taps", 16, sgemm16colsAVX512Taps)
		}
	}
}

// TestSGEMMKernelsZeroK pins the k=0 contract of the assembly: the kernels
// must return without touching c (the driver never calls them with k=0,
// but the guard in the assembly should hold on its own).
func TestSGEMMKernelsZeroK(t *testing.T) {
	a := New(4, 1) // backing storage; k passed as 0 below
	c := New(4, 16)
	c.Fill(7)
	bk := New(1, 16)
	sgemm8cols(&a.Data()[0], &bk.Data()[0], &c.Data()[0], 4, 0, 16)
	sgemm4cols(&a.Data()[0], &bk.Data()[0], &c.Data()[0], 4, 0, 16)
	if hasAVX2() {
		sgemm8colsAVX2(&a.Data()[0], &bk.Data()[0], &c.Data()[0], 4, 0, 16)
	}
	if hasAVX512() {
		sgemm16colsAVX512(&a.Data()[0], &bk.Data()[0], &c.Data()[0], 4, 0, 16)
	}
	for i, v := range c.Data() {
		if v != 7 {
			t.Fatalf("k=0 kernel wrote c[%d] = %v", i, v)
		}
	}
}
