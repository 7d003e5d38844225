//go:build amd64 && !noasm

package tensor

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// kernelCols is the column count of the kernel tests' operands: one
// 32-column block, whose prefix the narrower kernels use.
const kernelCols = 32

// kernelShapes are the kernel tests' (m, k) shapes. The row counts reach
// every row block of every body in both forms: 4-row blocks alone (4, 8),
// a single-row tail alone (1) and after 4-row blocks (5, 13), and — in the
// AVX-512 32-column body — a 2-row block alone (2), after 4-row blocks
// (6, 10), and followed by a single row (3, 7).
var kernelShapes = [][2]int{
	{1, 3}, {2, 7}, {3, 16}, {4, 1}, {5, 9}, {6, 5}, {7, 12}, {8, 27},
	{10, 33}, {13, 64}, {1, 300}, {1, 2048},
}

// kernelOperands returns a random m×k A and a random rows×kernelCols B.
// From m = 2 on, A's last row holds a NaN, B's column 0 a +Inf and a
// zero, and A a −0, so NaN propagation and Inf·0 are compared too, while
// the other rows and columns stay finite. The NaN is the one the CPU
// generates for Inf·0 (generatedNaN): with one payload in play, which
// operand of an add is its first source cannot show.
func kernelOperands(rng *xrand.RNG, m, k, rows int) (a, b *Tensor) {
	a, b = New(m, k), New(rows, kernelCols)
	rng.FillUniform(a.Data(), -2, 2)
	rng.FillUniform(b.Data(), -2, 2)
	if m >= 2 {
		a.Data()[(m-1)*k+rng.Intn(k)] = generatedNaN()
		a.Data()[rng.Intn((m-1)*k)] = float32(math.Copysign(0, -1))
		b.Data()[rng.Intn(rows)*kernelCols] = float32(math.Inf(1))
		b.Data()[rng.Intn(rows)*kernelCols] = 0
	}
	return a, b
}

// TestSGEMMKernelsAgree cross-checks every assembly lane kernel directly
// against the pure-Go lane kernel, independent of which one init selected:
// the SSE2 4-column kernel, and — when the CPU supports them — the AVX2
// 8-column and AVX-512 16- and 32-column kernels. This is the
// ladder's bit-identity proof: a machine that dispatches AVX-512
// certifies AVX2 and SSE2 in the same run and vice versa. (The NEON rung
// is pinned the same way on arm64: its 4-wide lane semantics are exactly
// kmajorColsGeneric with w=4, which this test certifies against the
// assembly here.) A reference wider than 8 columns is adjacent 8-column
// generic blocks: lanes are independent, so the pairing is exact.
func TestSGEMMKernelsAgree(t *testing.T) {
	t.Logf("dispatched kernel: %s", KMajorKernel())
	rng := xrand.New(97)
	for _, s := range kernelShapes {
		m, k := s[0], s[1]
		a, b := kernelOperands(rng, m, k, k)
		check := func(name string, w int, kern func(a, bk, c *float32, m, k, n int)) {
			t.Helper()
			want := New(m, kernelCols)
			for j := 0; j < w; j += 8 {
				kmajorColsGeneric(want.Data()[j:], a.Data(), b.Data()[j:], nil, m, min(8, w), k, kernelCols)
			}
			got := New(m, kernelCols)
			kern(&a.Data()[0], &b.Data()[0], &got.Data()[0], m, k, kernelCols)
			sameBits(t, name+" m="+itoa(m)+" k="+itoa(k), got.Data(), want.Data())
		}
		check("sse2 4-col", 4, sgemm4cols)
		if hasAVX2() {
			check("avx2 8-col", 8, sgemm8colsAVX2)
		}
		if hasAVX512() {
			check("avx512 16-col", 16, sgemm16colsAVX512)
			check("avx512 32-col", 32, sgemm32colsAVX512)
		}
	}
}

// TestSGEMMTapKernelsAgree cross-checks the table form of every assembly
// rung against the pure-Go lane kernel reading the same table: B row l
// starts at off[l], here scattered out of order and overlapping, as the
// indirect conv forward's taps do.
func TestSGEMMTapKernelsAgree(t *testing.T) {
	rng := xrand.New(98)
	for _, s := range kernelShapes {
		m, k := s[0], s[1]
		a, b := kernelOperands(rng, m, k, k+1)
		off := make([]int32, k)
		for l := range off {
			off[l] = int32((l*7)%k*kernelCols + l%5)
		}
		check := func(name string, w int, kern func(a, bk, c *float32, m, k, n int, off *int32)) {
			t.Helper()
			want := New(m, kernelCols)
			for j := 0; j < w; j += 8 {
				kmajorColsGeneric(want.Data()[j:], a.Data(), b.Data()[j:], off, m, min(8, w), k, kernelCols)
			}
			got := New(m, kernelCols)
			kern(&a.Data()[0], &b.Data()[0], &got.Data()[0], m, k, kernelCols, &off[0])
			sameBits(t, name+" m="+itoa(m)+" k="+itoa(k), got.Data(), want.Data())
		}
		check("sse2 4-col taps", 4, sgemm4colsTaps)
		if hasAVX2() {
			check("avx2 8-col taps", 8, sgemm8colsAVX2Taps)
		}
		if hasAVX512() {
			check("avx512 16-col taps", 16, sgemm16colsAVX512Taps)
			check("avx512 32-col taps", 32, sgemm32colsAVX512Taps)
		}
	}
}

// TestSGEMMKernelsZeroK pins the k=0 contract of the assembly: the kernels
// must return without touching c (the driver never calls them with k=0,
// but the guard in the assembly should hold on its own).
func TestSGEMMKernelsZeroK(t *testing.T) {
	a := New(4, 1) // backing storage; k passed as 0 below
	c := New(4, kernelCols)
	c.Fill(7)
	bk := New(1, kernelCols)
	off := []int32{0}
	pa, pb, pc := &a.Data()[0], &bk.Data()[0], &c.Data()[0]
	sgemm4cols(pa, pb, pc, 4, 0, kernelCols)
	sgemm4colsTaps(pa, pb, pc, 4, 0, kernelCols, &off[0])
	if hasAVX2() {
		sgemm8colsAVX2(pa, pb, pc, 4, 0, kernelCols)
		sgemm8colsAVX2Taps(pa, pb, pc, 4, 0, kernelCols, &off[0])
	}
	if hasAVX512() {
		sgemm16colsAVX512(pa, pb, pc, 4, 0, kernelCols)
		sgemm16colsAVX512Taps(pa, pb, pc, 4, 0, kernelCols, &off[0])
		sgemm32colsAVX512(pa, pb, pc, 4, 0, kernelCols)
		sgemm32colsAVX512Taps(pa, pb, pc, 4, 0, kernelCols, &off[0])
	}
	for i, v := range c.Data() {
		if v != 7 {
			t.Fatalf("k=0 kernel wrote c[%d] = %v", i, v)
		}
	}
}

// TestSGEMMNaNOperandOrder pins which source comes first in each lane
// kernel's multiply and add. With a different NaN payload in each source,
// x86 returns the first source's, so the order shows in the bits: a
// product a·b keeps a's NaN, and a sum acc + p keeps the accumulator's.
// Every row holds the pattern and m runs 1 to 7, so each row block of
// each body is checked in both forms.
func TestSGEMMNaNOperandOrder(t *testing.T) {
	nanA, nanB := math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002)
	type kernel struct {
		name string
		w    int
		run  func(a, bk, c *float32, m, k, n int)
		taps func(a, bk, c *float32, m, k, n int, off *int32)
	}
	kernels := []kernel{{"sse2 4-col", 4, sgemm4cols, sgemm4colsTaps}}
	if hasAVX2() {
		kernels = append(kernels, kernel{"avx2 8-col", 8, sgemm8colsAVX2, sgemm8colsAVX2Taps})
	}
	if hasAVX512() {
		kernels = append(kernels,
			kernel{"avx512 16-col", 16, sgemm16colsAVX512, sgemm16colsAVX512Taps},
			kernel{"avx512 32-col", 32, sgemm32colsAVX512, sgemm32colsAVX512Taps})
	}
	off := []int32{0, kernelCols}
	for _, tc := range []struct {
		op   string
		a, b [2]float32 // a[i][0:2] for every row i, and B rows 0 and 1
	}{
		{"mul", [2]float32{nanA, 0}, [2]float32{nanB, 0}}, // nanA·nanB, then + 0·0
		{"add", [2]float32{nanA, nanB}, [2]float32{1, 1}}, // (0 + nanA·1) + nanB·1
	} {
		for m := 1; m <= 7; m++ {
			a, b := New(m, 2), New(2, kernelCols)
			for i := 0; i < m; i++ {
				copy(a.Data()[2*i:], tc.a[:])
			}
			for j := 0; j < kernelCols; j++ {
				b.Data()[j], b.Data()[kernelCols+j] = tc.b[0], tc.b[1]
			}
			for _, kn := range kernels {
				want := New(m, kernelCols)
				for i := 0; i < m; i++ {
					for j := 0; j < kn.w; j++ {
						want.Data()[i*kernelCols+j] = nanA
					}
				}
				pa, pb := &a.Data()[0], &b.Data()[0]
				for form, run := range []func(c *float32){
					func(c *float32) { kn.run(pa, pb, c, m, 2, kernelCols) },
					func(c *float32) { kn.taps(pa, pb, c, m, 2, kernelCols, &off[0]) },
				} {
					got := New(m, kernelCols)
					run(&got.Data()[0])
					sameBits(t, kn.name+" "+[2]string{"strided", "taps"}[form]+" "+tc.op+" m="+itoa(m), got.Data(), want.Data())
				}
			}
		}
	}
}
