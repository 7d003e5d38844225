package tensor

import (
	"runtime"
	"testing"
	"time"
)

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

// BenchmarkIm2ColStride2 is the conv forward's input copy alone — the
// zero-padded, polyphase-split copy the indirect forward reads its taps
// from — at the stride-2 shapes of the models: DistNet's conv4 (24×16×16 →
// 8×8) and conv0 (3×64×64 → 32×32), and the UNet's second encoder stage
// (10×64×64 → 32×32). It keeps the name of the tap-major lowering it
// replaced, which wrote K·K floats per output position where the copy
// writes about one per input pixel.
func BenchmarkIm2ColStride2(b *testing.B) {
	for _, g := range []ConvGeom{
		{InC: 24, InH: 16, InW: 16, K: 3, Stride: 2, Pad: 1},
		{InC: 10, InH: 64, InW: 64, K: 3, Stride: 2, Pad: 1},
		{InC: 3, InH: 64, InW: 64, K: 3, Stride: 2, Pad: 1},
	} {
		b.Run(itoa(g.InC)+"x"+itoa(g.InH)+"x"+itoa(g.InW), func(b *testing.B) {
			x := New(g.InC, g.InH, g.InW)
			fillSeq(x)
			taps := NewConvTaps(g)
			xp := make([]float32, taps.PaddedLen())
			for i := 0; i < b.N; i++ {
				taps.padUnits(xp, x.data, 0, g.InC)
			}
		})
	}
}

// BenchmarkConvForward is one whole conv forward (IndirectConvInto: the
// padded copy, the indirect GEMM and the bias) of a single sample at the
// layer shapes that dominate a frame: the UNet's dec1 (26→10 channels at
// 64×64) and dec2 (40→16 at 32×32), its stride-2 enc2 (10→16, 64×64 →
// 32×32), and DistNet's first conv (3→12, stride 2, 64×64 → 32×32).
func BenchmarkConvForward(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    ConvGeom
		oc   int
	}{
		{"dec1", ConvGeom{InC: 26, InH: 64, InW: 64, K: 3, Stride: 1, Pad: 1}, 10},
		{"dec2", ConvGeom{InC: 40, InH: 32, InW: 32, K: 3, Stride: 1, Pad: 1}, 16},
		{"enc2", ConvGeom{InC: 10, InH: 64, InW: 64, K: 3, Stride: 2, Pad: 1}, 16},
		{"conv0", ConvGeom{InC: 3, InH: 64, InW: 64, K: 3, Stride: 2, Pad: 1}, 12},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.g
			x := New(g.InC, g.InH, g.InW)
			fillSeq(x)
			w, bias := New(tc.oc, g.InC*g.K*g.K), New(tc.oc)
			fillSeq(w)
			taps := NewConvTaps(g)
			xp, out := New(taps.PaddedLen()), New(tc.oc, g.OutH(), g.OutW())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				IndirectConvInto(out, xp, x, w, bias, taps)
			}
		})
	}
}

// BenchmarkConvBackwardInput is one whole conv input gradient
// (MatMulCol2ImInto: the Wᵀ·G product and the fold) of a single sample at
// the stride-2 layers an attack gradient runs through: DistNet's conv0
// (3→12 channels, 64×64 → 32×32), conv2 (12→24, 32×32 → 16×16) and conv4
// (24→32, 16×16 → 8×8), and the UNet's enc2 (10→16, 64×64 → 32×32).
func BenchmarkConvBackwardInput(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    ConvGeom
		oc   int
	}{
		{"conv0", ConvGeom{InC: 3, InH: 64, InW: 64, K: 3, Stride: 2, Pad: 1}, 12},
		{"conv2", ConvGeom{InC: 12, InH: 32, InW: 32, K: 3, Stride: 2, Pad: 1}, 24},
		{"conv4", ConvGeom{InC: 24, InH: 16, InW: 16, K: 3, Stride: 2, Pad: 1}, 32},
		{"enc2", ConvGeom{InC: 10, InH: 64, InW: 64, K: 3, Stride: 2, Pad: 1}, 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.g
			l, p := g.InC*g.K*g.K, g.OutH()*g.OutW()
			wT, grad := New(l, tc.oc), New(tc.oc, g.OutH(), g.OutW())
			fillSeq(wT)
			fillSeq(grad)
			taps := NewConvTaps(g)
			cols, fold, dx := New(l, p), New(taps.PaddedLen()), New(g.InC, g.InH, g.InW)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulCol2ImInto(dx, cols, fold, wT, grad, taps)
			}
		})
	}
}

// BenchmarkElementwise times each elementwise kernel over 10×64×64 floats,
// the output of the DiffPIR UNet's dec1 conv: LeakyReLU forward and
// backward, axpy (AddScaledInPlace) and scale (ScaleInPlace).
func BenchmarkElementwise(b *testing.B) {
	x, y, dst := New(10, 64, 64), New(10, 64, 64), New(10, 64, 64)
	fillSeq(x)
	for i := range x.Data() {
		x.Data()[i] -= 1.5 // both signs
	}
	copy(y.Data(), x.Data())
	y.ScaleInPlace(-1)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"leakyReLU", func() { LeakyReLUInto(dst, x, 0.1) }},
		{"leakyReLUGrad", func() { LeakyReLUBackwardInto(dst, y, x, 0.1) }},
		{"axpy", func() { dst.AddScaledInPlace(x, 1e-3) }},
		{"scale", func() { dst.ScaleInPlace(1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(4 * x.Len()))
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}

// BenchmarkPoolDispatch times one near-empty 2-way dispatch (a 2-row GEMM
// of one column, one row per worker) at GOMAXPROCS=2: back to back, and
// after ~30 µs of serial work on the caller, the gap between two convs of
// a UNet pass. The second reports the dispatch alone as dispatch-ns/op;
// its ns/op includes the serial work.
func BenchmarkPoolDispatch(b *testing.B) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	t := poolTask{op: opGEMM, c: make([]float32, 2), a: []float32{1, 2}, bk: []float32{3}, k: 1, n: 1}
	t.shard(2, 2) // start the pool
	b.Run("back-to-back", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.shard(2, 2)
		}
	})
	b.Run("after-serial-work", func(b *testing.B) {
		work := make([]float32, 1<<13)
		fillSeq(FromSlice(work, len(work)))
		var sink float32
		var spent time.Duration
		for i := 0; i < b.N; i++ {
			for rep := 0; rep < 3; rep++ { // one dependent add chain: ~30 µs
				for _, v := range work {
					sink += v
				}
			}
			start := time.Now()
			t.shard(2, 2)
			spent += time.Since(start)
		}
		b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "dispatch-ns/op")
		if sink == 0 {
			b.Log(sink)
		}
	})
}
