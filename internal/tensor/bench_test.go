package tensor

import "testing"

// Kernel micro-benchmarks at the shapes the perception models actually
// produce; the CI perf-smoke job runs these once per PR with -benchmem so
// allocation regressions in the hot kernels surface immediately.

// BenchmarkMatMulKMajorConvForward is the unified conv forward product at
// the single-frame conv2 shape — (256×108) patches against the (108×24)
// k-major weight matrix — on the dispatched SIMD lane kernel.
func BenchmarkMatMulKMajorConvForward(b *testing.B) {
	a, x, dst := New(256, 108), New(108, 24), New(256, 24)
	fillSeq(a)
	fillSeq(x)
	b.Logf("kernel: %s", KMajorKernel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulKMajorInto(dst, a, x)
	}
}

// BenchmarkMatMulKMajorSerial and BenchmarkMatMulKMajorParallel are the
// perf gate's row-shard pair: the same batch-8 conv patch product
// (2048×108 · 108×24, past parallelMinWork) through the serial driver and
// through the dispatched path (row-sharded at GOMAXPROCS > 1). On a
// multi-core runner the gap between them is the row-shard win; on one
// core they should be within noise of each other (dispatch overhead only).
func BenchmarkMatMulKMajorSerial(b *testing.B) {
	a, x, dst := New(2048, 108), New(108, 24), New(2048, 24)
	fillSeq(a)
	fillSeq(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulKMajorSerial(dst.Data(), a.Data(), x.Data(), 2048, 108, 24)
	}
}

func BenchmarkMatMulKMajorParallel(b *testing.B) {
	a, x, dst := New(2048, 108), New(108, 24), New(2048, 24)
	fillSeq(a)
	fillSeq(x)
	b.Logf("kernel: %s", KMajorKernel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulKMajorInto(dst, a, x)
	}
}

// BenchmarkMatMulKMajorGemv is the single-frame dense-head gemv (1×2048 ·
// 2048×48), the shape the assembly single-row tail exists for.
func BenchmarkMatMulKMajorGemv(b *testing.B) {
	a, x, dst := New(1, 2048), New(2048, 48), New(1, 48)
	fillSeq(a)
	fillSeq(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulKMajorInto(dst, a, x)
	}
}

// BenchmarkTranspose2DInto transposes the largest weight matrix in the
// repo's models.
func BenchmarkTranspose2DInto(b *testing.B) {
	a, dst := New(432, 48), New(48, 432)
	fillSeq(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose2DInto(dst, a)
	}
}
