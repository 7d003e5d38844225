package tensor

import (
	"runtime"
	"testing"

	"repro/internal/testenv"
)

// The destination-passing kernels are the foundation of the repo's
// allocation-free hot paths; these guards fail CI when a change
// reintroduces steady-state allocations.

func TestTranspose2DIntoAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	a, dst := New(48, 37), New(37, 48)
	fillSeq(a)
	if avg := testing.AllocsPerRun(100, func() { Transpose2DInto(dst, a) }); avg != 0 {
		t.Fatalf("Transpose2DInto allocates %.2f/op, want 0", avg)
	}
}

// TestIm2ColCol2ImIntoAllocs guards the conv forward, IndirectConvInto,
// and its adjoint, MatMulCol2ImInto — below the work gate (serial on the
// caller) and above it at GOMAXPROCS=2 (sharded through the pool's
// recycled jobs).
func TestIm2ColCol2ImIntoAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	g := ConvGeom{InC: 3, InH: 16, InW: 16, K: 3, Stride: 2, Pad: 1}
	x := New(3, 16, 16)
	fillSeq(x)
	w, bias := New(10, 3*3*3), New(10)
	fillSeq(w)
	taps := NewConvTaps(g)
	xp, out := New(taps.PaddedLen()), New(10, g.OutH(), g.OutW())
	if avg := testing.AllocsPerRun(100, func() { IndirectConvInto(out, xp, x, w, bias, taps) }); avg != 0 {
		t.Fatalf("serial IndirectConvInto allocates %.2f/op, want 0", avg)
	}
	col2imAllocs := func(g ConvGeom) float64 {
		const oc = 10
		l, p := g.InC*g.K*g.K, g.OutH()*g.OutW()
		wT, grad := New(l, oc), New(oc, g.OutH(), g.OutW())
		fillSeq(wT)
		fillSeq(grad)
		taps := NewConvTaps(g)
		cols, fold, dx := New(l, p), New(taps.PaddedLen()), New(g.InC, g.InH, g.InW)
		MatMulCol2ImInto(dx, cols, fold, wT, grad, taps) // warm the pool
		return testing.AllocsPerRun(100, func() { MatMulCol2ImInto(dx, cols, fold, wT, grad, taps) })
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if avg := col2imAllocs(g); avg != 0 {
		t.Fatalf("serial MatMulCol2ImInto allocates %.2f/op, want 0", avg)
	}
	// A sharded call may refill the pool's job cache after a GC emptied it,
	// so like the other sharded budgets this one allows a fraction.
	sharded := ConvGeom{InC: 5, InH: 32, InW: 32, K: 3, Stride: 1, Pad: 1}
	if avg := col2imAllocs(sharded); avg >= 1 {
		t.Fatalf("sharded MatMulCol2ImInto allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestIntoVariantsMatchAllocating pins each destination-passing kernel
// writing into a reused destination full of stale values to the same
// kernel writing into a freshly allocated one: no stale value may leak
// into a result.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	same := func(what string, got, want *Tensor) {
		t.Helper()
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("%s[%d] = %v, want %v", what, i, v, want.Data()[i])
			}
		}
	}
	a, b := New(17, 23), New(23, 31)
	fillSeq(a)
	fillSeq(b)
	dst := New(17, 31)
	dst.Fill(99)
	MatMulKMajorInto(dst, a, b)
	same("MatMulKMajorInto", dst, matMul(a, b))

	tr := New(31, 23)
	tr.Fill(99)
	Transpose2DInto(tr, b)
	same("Transpose2DInto", tr, transpose(b))

	g := ConvGeom{InC: 2, InH: 9, InW: 7, K: 3, Stride: 2, Pad: 1}
	x := New(2, 9, 7)
	fillSeq(x)
	w, bias := New(4, 2*3*3), New(4)
	fillSeq(w)
	fillSeq(bias)
	taps := NewConvTaps(g)
	wantXP, wantOut := New(taps.PaddedLen()), New(4, g.OutH(), g.OutW())
	IndirectConvInto(wantOut, wantXP, x, w, bias, taps)
	xp := stalePadded(taps, 1)
	out := New(4, g.OutH(), g.OutW())
	out.Fill(99)
	IndirectConvInto(out, xp, x, w, bias, taps)
	same("IndirectConvInto padded copy", xp, wantXP)
	same("IndirectConvInto", out, wantOut)
	cols := tapCols(xp.Data(), taps, 1)

	wT, grad := New(2*3*3, 4), New(4, g.OutH(), g.OutW())
	fillSeq(wT)
	fillSeq(grad)
	wantIm := New(2, 9, 7)
	MatMulCol2ImInto(wantIm, cols, New(taps.PaddedLen()), wT, grad, taps)
	cols.Fill(99)
	im := New(2, 9, 7)
	im.Fill(99)
	MatMulCol2ImInto(im, cols, stalePadded(taps, 1), wT, grad, taps)
	same("MatMulCol2ImInto", im, wantIm)
}
