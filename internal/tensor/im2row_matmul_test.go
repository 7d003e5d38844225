package tensor

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/testenv"
	"repro/internal/xrand"
)

// im2colMatMulCases are the fused conv forward's edge cases: inputs whose
// (sample, output row) shards split a sample mid-image at 2 and 4 workers,
// stride 2, a 1×1 unpadded kernel (one row copy per tap), K=5 at stride
// 3, and output channel counts from a pure sub-lane product (3) through an
// overlapping-tail width (10, 17) to an exact lane multiple plus 4-block
// (12). Most are past parallelMinWork at N=3 so the sharded path runs;
// N=1 and the stride-3 case stay below it and pin the serial path.
var im2colMatMulCases = []ConvGeom{
	{InC: 5, InH: 19, InW: 21, K: 3, Stride: 1, Pad: 1},
	{InC: 4, InH: 33, InW: 30, K: 3, Stride: 2, Pad: 1},
	{InC: 10, InH: 40, InW: 40, K: 1, Stride: 1, Pad: 0},
	{InC: 3, InH: 17, InW: 16, K: 5, Stride: 3, Pad: 2},
}

var im2colMatMulOutC = []int{3, 10, 12, 17}

// fusedOperands builds an n-sample batch holding a +0, a −0 and a NaN, a
// random OutC × (InC·K·K) weight matrix and bias, and the two-call
// reference of twoCallForward.
func fusedOperands(rng *xrand.RNG, n int, g ConvGeom, oc int) (x, w, bias, wantCols, want *Tensor) {
	x, _ = batchOf(rng, n, g)
	xd := x.Data()
	xd[rng.Intn(len(xd))] = 0
	xd[rng.Intn(len(xd))] = float32(math.Copysign(0, -1))
	xd[rng.Intn(len(xd))] = float32(math.NaN())
	w, bias = New(oc, g.InC*g.K*g.K), New(oc)
	rng.FillUniform(w.Data(), -1, 1)
	rng.FillUniform(bias.Data(), -1, 1)
	wantCols, want = twoCallForward(x, w, bias, n, g)
	return x, w, bias, wantCols, want
}

// twoCallForward is the conv forward Im2ColMatMulInto replaces: each
// sample's naiveIm2Col lowering, then the naive ascending-dot product of
// w with it, plus the bias.
func twoCallForward(x, w, bias *Tensor, n int, g ConvGeom) (cols, out *Tensor) {
	l, p, oc := g.InC*g.K*g.K, g.OutH()*g.OutW(), w.Dim(0)
	sampleLen := g.InC * g.InH * g.InW
	cols, out = New(n*l, p), New(n, oc, g.OutH(), g.OutW())
	for s := 0; s < n; s++ {
		cs := naiveIm2Col(FromSlice(x.Data()[s*sampleLen:(s+1)*sampleLen], g.InC, g.InH, g.InW), g)
		copy(cols.Data()[s*l*p:], cs.Data())
		prod := naiveKMajor(w, cs).Data()
		for i, v := range prod {
			prod[i] = v + bias.Data()[i/p]
		}
		copy(out.Data()[s*oc*p:], prod)
	}
	return cols, out
}

// TestIm2RowMatMulMatchesTwoCall pins the fused lowering+GEMM+bias,
// Im2ColMatMulInto, to the naive tap-major lowering followed by the naive
// GEMM reference, byte for byte — both the product and the lowering
// Backward reads — at GOMAXPROCS ∈ {1,2,4,16} and N ∈ {1,3}, so sharding
// by (sample, output row) bands is dispatch only.
func TestIm2RowMatMulMatchesTwoCall(t *testing.T) {
	rng := xrand.New(141)
	for _, g := range im2colMatMulCases {
		for _, oc := range im2colMatMulOutC {
			for _, n := range []int{1, 3} {
				x, w, bias, wantCols, want := fusedOperands(rng, n, g, oc)
				for _, procs := range []int{1, 2, 4, 16} {
					old := runtime.GOMAXPROCS(procs)
					cols := New(wantCols.Shape()...)
					cols.Fill(99) // stale garbage must be fully overwritten
					got := New(want.Shape()...)
					got.Fill(99)
					Im2ColMatMulInto(got, cols, x, w, bias, g)
					runtime.GOMAXPROCS(old)
					what := "GOMAXPROCS=" + itoa(procs) + " N=" + itoa(n) + " K=" + itoa(g.K) + " stride=" + itoa(g.Stride) + " OutC=" + itoa(oc)
					sameBits(t, what+" cols", cols.Data(), wantCols.Data())
					sameBits(t, what+" product", got.Data(), want.Data())
				}
			}
		}
	}
}

// TestIm2RowMatMulExplicitWorkers drives the conv shard split directly at
// worker counts the GOMAXPROCS gate would never pick — odd counts, more
// workers than output rows — so bands that split a sample at any output
// row, bands narrower than one 16-column block (OutW 6) and bands below
// one 4-column lane block (OutW 3, the scalar path) are pinned
// independently of the gate.
func TestIm2RowMatMulExplicitWorkers(t *testing.T) {
	rng := xrand.New(142)
	for _, g := range []ConvGeom{
		{InC: 2, InH: 7, InW: 6, K: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 9, InW: 5, K: 3, Stride: 2, Pad: 1},
	} {
		for _, oc := range im2colMatMulOutC {
			x, w, bias, wantCols, want := fusedOperands(rng, 3, g, oc)
			units := 3 * g.OutH()
			for _, workers := range []int{1, 2, 3, 5, 16, units, units + 5} {
				cols := New(wantCols.Shape()...)
				cols.Fill(99)
				got := New(want.Shape()...)
				got.Fill(99)
				task := poolTask{c: got.Data(), a: w.Data(), bk: cols.Data(), k: w.Dim(1), n: oc, x: x.Data(), b: bias.Data(), g: g}
				task.shard(units, workers)
				what := "OutW=" + itoa(g.OutW()) + " workers=" + itoa(workers) + " OutC=" + itoa(oc)
				sameBits(t, what+" cols", cols.Data(), wantCols.Data())
				sameBits(t, what+" product", got.Data(), want.Data())
			}
		}
	}
}

// TestIm2RowMatMulSteadyStateAllocs keeps the fused entry allocation-free:
// exactly 0 allocs/op below the work gate (serial on the caller), and
// below 1 above it at GOMAXPROCS=2 (conv shards travel by value through
// the pool, which may refill its WaitGroup pool after a GC).
func TestIm2RowMatMulSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	rng := xrand.New(143)
	for _, tc := range []struct {
		g       ConvGeom
		sharded bool
	}{
		{ConvGeom{InC: 3, InH: 16, InW: 16, K: 3, Stride: 2, Pad: 1}, false},
		{ConvGeom{InC: 10, InH: 16, InW: 16, K: 1, Stride: 1, Pad: 0}, false}, // 1×1 head
		{ConvGeom{InC: 5, InH: 32, InW: 32, K: 3, Stride: 1, Pad: 1}, true},
	} {
		x, w, bias, wantCols, want := fusedOperands(rng, 1, tc.g, 10)
		cols, got := New(wantCols.Shape()...), New(want.Shape()...)
		Im2ColMatMulInto(got, cols, x, w, bias, tc.g) // warm the pool
		avg := testing.AllocsPerRun(100, func() { Im2ColMatMulInto(got, cols, x, w, bias, tc.g) })
		if (tc.sharded && avg >= 1) || (!tc.sharded && avg != 0) {
			t.Fatalf("Im2ColMatMulInto %+v (sharded %v) allocates %.2f/op in steady state", tc.g, tc.sharded, avg)
		}
	}
}

// col2imReference is the two-call input gradient MatMulCol2ImInto
// replaces: the patch-major product G·W by the naive ascending-dot GEMM
// (G permuted to (N·P)×OutC, W = wTᵀ), then each sample's patch rows
// transposed to tap-major columns and scattered by naiveCol2Im.
func col2imReference(grad, wT *Tensor, n int, g ConvGeom) *Tensor {
	p, l, oc := g.OutH()*g.OutW(), wT.Dim(0), wT.Dim(1)
	gm := New(n*p, oc)
	for s := 0; s < n; s++ {
		for c := 0; c < oc; c++ {
			for pi := 0; pi < p; pi++ {
				gm.Set(grad.Data()[(s*oc+c)*p+pi], s*p+pi, c)
			}
		}
	}
	dP := naiveKMajor(gm, transpose(wT))
	want := New(n, g.InC, g.InH, g.InW)
	sampleLen := g.InC * g.InH * g.InW
	for s := 0; s < n; s++ {
		cols := New(l, p)
		for pi := 0; pi < p; pi++ {
			for li := 0; li < l; li++ {
				cols.Set(dP.At(s*p+pi, li), li, pi)
			}
		}
		copy(want.Data()[s*sampleLen:], naiveCol2Im(cols, g).Data())
	}
	return want
}

// col2imOperands builds a random [N,OutC,OutH,OutW] gradient holding a +0,
// a −0 and a NaN, and a random transposed weight matrix.
func col2imOperands(rng *xrand.RNG, n int, g ConvGeom, oc int) (grad, wT *Tensor) {
	grad = New(n, oc, g.OutH(), g.OutW())
	rng.FillUniform(grad.Data(), -1, 1)
	gd := grad.Data()
	gd[rng.Intn(len(gd))] = 0
	gd[rng.Intn(len(gd))] = float32(math.Copysign(0, -1))
	gd[rng.Intn(len(gd))] = float32(math.NaN())
	wT = New(g.InC*g.K*g.K, oc)
	rng.FillUniform(wT.Data(), -1, 1)
	return grad, wT
}

// TestMatMulCol2ImMatchesTwoCall pins the fused input gradient to the
// naive G·W product followed by the naive per-tap scatter, byte for byte,
// at GOMAXPROCS ∈ {1,2,4,16} over batch sizes, channel counts, strides,
// kernel sizes and paddings. The largest geometries are past
// parallelMinWork, so the (sample, channel) sharding runs under -race.
func TestMatMulCol2ImMatchesTwoCall(t *testing.T) {
	rng := xrand.New(144)
	const oc = 10
	for _, n := range []int{1, 3} {
		for _, inC := range []int{1, 3, 12} {
			for _, stride := range []int{1, 2, 3} {
				for _, k := range []int{1, 3, 5} {
					for _, pad := range []int{0, 1, 2} {
						g := ConvGeom{InC: inC, InH: 11, InW: 9, K: k, Stride: stride, Pad: pad}
						grad, wT := col2imOperands(rng, n, g, oc)
						want := col2imReference(grad, wT, n, g)
						what := "N=" + itoa(n) + " InC=" + itoa(inC) + " stride=" + itoa(stride) + " K=" + itoa(k) + " pad=" + itoa(pad)
						for _, procs := range []int{1, 2, 4, 16} {
							old := runtime.GOMAXPROCS(procs)
							cols := New(n*g.InC*k*k, g.OutH()*g.OutW())
							cols.Fill(99)
							got := New(want.Shape()...)
							got.Fill(99) // stale garbage must be fully overwritten
							MatMulCol2ImInto(got, cols, wT, grad, g)
							runtime.GOMAXPROCS(old)
							sameBits(t, what+" GOMAXPROCS="+itoa(procs), got.Data(), want.Data())
						}
					}
				}
			}
		}
	}
}
