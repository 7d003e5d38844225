package tensor

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// mustPanicIff runs fn and fails the test unless fn panics exactly when
// wantPanic is set; the fuzz targets use it to pin the package's
// index/shape contract (panic on malformed input, never silent corruption).
func mustPanicIff(t *testing.T, wantPanic bool, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if wantPanic && r == nil {
			t.Fatalf("%s: expected panic", what)
		}
		if !wantPanic && r != nil {
			t.Fatalf("%s: unexpected panic: %v", what, r)
		}
	}()
	fn()
}

func FuzzTensorIndex(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), int16(1), int16(2), int16(3))
	f.Add(uint8(1), uint8(1), uint8(1), int16(0), int16(0), int16(0))
	f.Add(uint8(5), uint8(2), uint8(7), int16(-1), int16(0), int16(6))
	f.Add(uint8(3), uint8(3), uint8(3), int16(3), int16(2), int16(2))
	f.Fuzz(func(t *testing.T, d0, d1, d2 uint8, i0, i1, i2 int16) {
		dims := []int{int(d0)%6 + 1, int(d1)%6 + 1, int(d2)%6 + 1}
		tt := New(dims...)
		if tt.Len() != dims[0]*dims[1]*dims[2] {
			t.Fatalf("Len %d for shape %v", tt.Len(), dims)
		}

		idx := []int{int(i0), int(i1), int(i2)}
		inBounds := true
		for k := range idx {
			if idx[k] < 0 || idx[k] >= dims[k] {
				inBounds = false
			}
		}
		mustPanicIff(t, !inBounds, "At", func() { tt.At(idx...) })
		mustPanicIff(t, !inBounds, "Set", func() { tt.Set(1, idx...) })
		// Rank-mismatched indexing must panic regardless of values.
		mustPanicIff(t, true, "At rank", func() { tt.At(idx[0], idx[1]) })

		if inBounds {
			// A single Set touches exactly one storage slot.
			n := 0
			for _, v := range tt.Data() {
				if v != 0 {
					n++
				}
			}
			if n != 1 || tt.At(idx...) != 1 {
				t.Fatalf("Set/At inconsistent at %v in shape %v", idx, dims)
			}
		}
	})
}

func FuzzTensorReshape(f *testing.F) {
	f.Add(uint8(2), uint8(6), uint8(3), uint8(4))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(4), uint8(4), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, a, b, c, d uint8) {
		m, n := int(a)%8+1, int(b)%8+1
		p, q := int(c)%8+1, int(d)%8+1
		tt := New(m, n)
		ok := m*n == p*q
		mustPanicIff(t, !ok, "Reshape", func() {
			v := tt.Reshape(p, q)
			// A reshape is a view: writes through it land in the original.
			v.Set(7, p-1, q-1)
			if tt.Data()[m*n-1] != 7 {
				t.Fatal("reshape must share storage")
			}
		})
	})
}

func FuzzFromSlice(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint8(3))
	f.Add(uint8(5), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, length, d0, d1 uint8) {
		n := int(length) % 65
		m, k := int(d0)%8+1, int(d1)%8+1
		data := make([]float32, n)
		mustPanicIff(t, n != m*k, "FromSlice", func() {
			tt := FromSlice(data, m, k)
			if tt.Len() != n {
				t.Fatalf("FromSlice Len %d, want %d", tt.Len(), n)
			}
		})
	})
}

func fillSeq(t *Tensor) {
	for i := range t.Data() {
		t.Data()[i] = float32(i%13) * 0.25
	}
}

// FuzzMatMulKMajorVsRef differentially fuzzes the dispatched k-major
// kernel (assembly lanes on amd64, generic elsewhere) against a naive
// ascending-dot reference over random shapes, including K=0, single
// rows/columns and column counts that are not lane multiples (finished by
// an overlapping lane block, or scalar below 4 columns). Any divergence —
// wrong value OR wrong bits — fails.
func FuzzMatMulKMajorVsRef(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(8), int64(1))
	f.Add(uint8(0), uint8(0), uint8(8), int64(2))  // k = 0: output must be all zeros
	f.Add(uint8(0), uint8(6), uint8(0), int64(3))  // single row and column
	f.Add(uint8(4), uint8(2), uint8(12), int64(4)) // n ≡ 1 mod 4: scalar column tail
	f.Add(uint8(2), uint8(30), uint8(6), int64(5)) // row tail below the 4-row block
	f.Add(uint8(16), uint8(40), uint8(47), int64(6))
	f.Add(uint8(9), uint8(20), uint8(9), int64(7))  // n = 10: overlapping 8-wide tail
	f.Add(uint8(5), uint8(13), uint8(26), int64(8)) // n = 27: overlapping 16- or 8-wide tail
	f.Add(uint8(6), uint8(11), uint8(2), int64(9))  // n = 3: three-accumulator scalar path
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed int64) {
		m := int(mr)%17 + 1
		k := int(kr) % 33 // 0 is a legal contraction length at the slice level
		n := int(nr)%41 + 1
		rng := xrand.New(seed)
		a := make([]float32, m*k)
		bk := make([]float32, k*n)
		rng.FillUniform(a, -3, 3)
		rng.FillUniform(bk, -3, 3)
		if len(a) > 0 {
			a[rng.Intn(len(a))] = 0 // exercise any zero-skip path
		}

		got := make([]float32, m*n)
		for i := range got {
			got[i] = 99 // stale garbage must be fully overwritten
		}
		matMulKMajor(got, a, bk, m, k, n)

		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for l := 0; l < k; l++ {
					s += float32(a[i*k+l] * bk[l*n+j]) // unfused, like every rung
				}
				if got[i*n+j] != s {
					t.Fatalf("m=%d k=%d n=%d (%s): [%d,%d] = %v, want %v",
						m, k, n, KMajorKernel(), i, j, got[i*n+j], s)
				}
			}
		}
	})
}

// FuzzMatMulKMajorParallelVsSerial differentially fuzzes the row-shard
// driver against the serial lane-kernel driver at arbitrary worker counts
// (including more workers than rows), bypassing the work-threshold gate so
// even tiny products exercise the shard arithmetic. The two must agree in
// their bits: parallelism is dispatch, never numerics.
func FuzzMatMulKMajorParallelVsSerial(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(8), uint8(2), int64(1))
	f.Add(uint8(0), uint8(6), uint8(0), uint8(16), int64(2)) // m=1, workers > m
	f.Add(uint8(6), uint8(2), uint8(12), uint8(3), int64(3)) // m not divisible by workers
	f.Add(uint8(16), uint8(40), uint8(47), uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, mr, kr, nr, wr uint8, seed int64) {
		m := int(mr)%33 + 1
		k := int(kr)%33 + 1
		n := int(nr)%41 + 1
		workers := int(wr)%19 + 1
		rng := xrand.New(seed)
		a := make([]float32, m*k)
		bk := make([]float32, k*n)
		rng.FillUniform(a, -3, 3)
		rng.FillUniform(bk, -3, 3)

		want := make([]float32, m*n)
		matMulKMajorSerial(want, a, bk, m, k, n)

		got := make([]float32, m*n)
		for i := range got {
			got[i] = 99 // stale garbage must be fully overwritten
		}
		matMulKMajorParallel(got, a, bk, m, k, n, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=%d k=%d n=%d workers=%d (%s): [%d] = %v, want %v",
					m, k, n, workers, KMajorKernel(), i, got[i], want[i])
			}
		}
	})
}

// FuzzCol2Im differentially fuzzes the conv input gradient — the tap-major
// Wᵀ·G product and its per-channel fold, sharded over an arbitrary worker
// count — against the naive G·W product followed by the naive per-tap
// scatter (col2imReference), over random geometries including 1×1 kernels,
// strides past the kernel size, padding wider than the image and output
// widths below one lane block. The gradient holds ±0 and, on odd seeds, a
// NaN; the result must agree in its bits.
func FuzzCol2Im(f *testing.F) {
	f.Add(uint8(2), uint8(8), uint8(6), uint8(1), uint8(1), uint8(1), uint8(4), uint8(1), uint8(2), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(2))  // 1×1 image, 1×1 kernel
	f.Add(uint8(2), uint8(10), uint8(9), uint8(2), uint8(2), uint8(2), uint8(9), uint8(2), uint8(4), int64(3)) // K=5, stride 3, pad 2
	f.Add(uint8(0), uint8(1), uint8(1), uint8(1), uint8(0), uint8(2), uint8(2), uint8(0), uint8(15), int64(4)) // pad past a 2×2 image
	f.Add(uint8(11), uint8(5), uint8(12), uint8(1), uint8(1), uint8(0), uint8(16), uint8(1), uint8(3), int64(5))
	f.Add(uint8(4), uint8(3), uint8(3), uint8(1), uint8(3), uint8(1), uint8(1), uint8(2), uint8(7), int64(6)) // stride 4 > K = 3
	f.Fuzz(func(t *testing.T, cr, hr, wr, kr, sr, pr, ocr, nr, workr uint8, seed int64) {
		g := ConvGeom{
			InC: int(cr)%12 + 1, InH: int(hr)%12 + 1, InW: int(wr)%12 + 1,
			K: 2*(int(kr)%3) + 1, Stride: int(sr)%4 + 1, Pad: int(pr) % 3,
		}
		if g.Validate() != nil {
			return
		}
		oc, n, workers := int(ocr)%17+1, int(nr)%3+1, int(workr)%16+1
		rng := xrand.New(seed)
		grad, wT := col2imOperands(rng, n, g, oc)
		if seed%2 == 0 {
			for i, v := range grad.Data() {
				if math.IsNaN(float64(v)) {
					grad.Data()[i] = 0.5
				}
			}
		}
		want := col2imReference(grad, wT, n, g)

		got := New(want.Shape()...)
		got.Fill(99) // stale garbage must be fully overwritten
		p := g.OutH() * g.OutW()
		task := poolTask{c: make([]float32, n*g.InC*g.K*g.K*p), a: wT.Data(), bk: grad.Data(), k: oc, n: p, dx: got.Data(), g: g}
		task.shard(n*g.InC, workers)
		sameBits(t, "fuzz "+itoa(g.InC)+"x"+itoa(g.InH)+"x"+itoa(g.InW)+" K="+itoa(g.K)+" stride="+itoa(g.Stride)+" pad="+itoa(g.Pad), got.Data(), want.Data())
	})
}

// FuzzIm2Col differentially fuzzes the conv forward — the tap-major
// lowering, the column-band GEMM and the bias, sharded by (sample, output
// row) over an arbitrary worker count — against the naive lowering
// followed by the naive GEMM (fusedOperands), over random geometries
// including 1×1 unpadded kernels, strides past the kernel size, padding
// wider than the image and bands narrower than one lane block. The input
// holds ±0 and, on odd seeds, a NaN; the product and the lowering must
// agree in their bits.
func FuzzIm2Col(f *testing.F) {
	f.Add(uint8(2), uint8(8), uint8(6), uint8(1), uint8(1), uint8(1), uint8(4), uint8(1), uint8(2), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(2))  // 1×1 image, 1×1 kernel
	f.Add(uint8(2), uint8(10), uint8(9), uint8(2), uint8(2), uint8(2), uint8(9), uint8(2), uint8(4), int64(3)) // K=5, stride 3, pad 2
	f.Add(uint8(0), uint8(1), uint8(1), uint8(1), uint8(0), uint8(2), uint8(2), uint8(0), uint8(15), int64(4)) // pad past a 2×2 image
	f.Add(uint8(9), uint8(5), uint8(11), uint8(0), uint8(0), uint8(0), uint8(2), uint8(1), uint8(3), int64(5)) // 1×1 kernel, OutC 3
	f.Add(uint8(4), uint8(3), uint8(3), uint8(1), uint8(3), uint8(1), uint8(1), uint8(2), uint8(7), int64(6))  // stride 4 > K = 3
	f.Fuzz(func(t *testing.T, cr, hr, wr, kr, sr, pr, ocr, nr, workr uint8, seed int64) {
		g := ConvGeom{
			InC: int(cr)%12 + 1, InH: int(hr)%12 + 1, InW: int(wr)%12 + 1,
			K: 2*(int(kr)%3) + 1, Stride: int(sr)%4 + 1, Pad: int(pr) % 3,
		}
		if g.Validate() != nil {
			return
		}
		oc, n, workers := int(ocr)%17+1, int(nr)%3+1, int(workr)%16+1
		rng := xrand.New(seed)
		x, w, bias, wantCols, want := fusedOperands(rng, n, g, oc)
		if seed%2 == 0 {
			for i, v := range x.Data() {
				if math.IsNaN(float64(v)) {
					x.Data()[i] = 0.5
				}
			}
			wantCols, want = twoCallForward(x, w, bias, n, g)
		}

		cols := New(wantCols.Shape()...)
		cols.Fill(99) // stale garbage must be fully overwritten
		got := New(want.Shape()...)
		got.Fill(99)
		task := poolTask{c: got.Data(), a: w.Data(), bk: cols.Data(), k: w.Dim(1), n: oc, x: x.Data(), b: bias.Data(), g: g}
		task.shard(n*g.OutH(), workers)
		what := "fuzz " + itoa(g.InC) + "x" + itoa(g.InH) + "x" + itoa(g.InW) + " K=" + itoa(g.K) + " stride=" + itoa(g.Stride) + " pad=" + itoa(g.Pad)
		sameBits(t, what+" cols", cols.Data(), wantCols.Data())
		sameBits(t, what, got.Data(), want.Data())
	})
}
