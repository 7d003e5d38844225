package tensor

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/testenv"
	"repro/internal/xrand"
)

// im2rowMatMulCases are the fused conv forward's edge cases: batched N=3
// inputs whose row shards split a sample mid-image at 2 and 4 workers,
// stride 2, a 1×1 kernel (all lowering, no window overlap), and output
// widths from a pure sub-lane product (3) through an overlapping-tail
// width (10, 17) to an exact lane multiple plus 4-block (12). Most are
// past parallelMinWork at every OutC so the sharded path runs; the
// stride-2 case at OutC=3 stays below it and pins the serial path.
var im2rowMatMulCases = []ConvGeom{
	{InC: 5, InH: 19, InW: 21, K: 3, Stride: 1, Pad: 1},
	{InC: 4, InH: 33, InW: 30, K: 3, Stride: 2, Pad: 1},
	{InC: 10, InH: 40, InW: 40, K: 1, Stride: 1, Pad: 0},
}

var im2rowMatMulOutC = []int{3, 10, 12, 17}

// fusedOperands builds an N=3 batch, a random transposed weight matrix and
// the two-call reference: Im2RowInto's patches and the naive ascending-dot
// product of them with wT.
func fusedOperands(rng *xrand.RNG, g ConvGeom, oc int) (x, wT, wantP, want *Tensor) {
	const n = 3
	x, _ = batchOf(rng, n, g)
	l := g.InC * g.K * g.K
	wT = New(l, oc)
	rng.FillUniform(wT.Data(), -1, 1)
	wantP = New(n*g.OutH()*g.OutW(), l)
	Im2RowInto(wantP, x, g)
	return x, wT, wantP, naiveKMajor(wantP, wT)
}

// TestIm2RowMatMulMatchesTwoCall pins the fused lowering+GEMM to
// Im2RowInto followed by the naive GEMM reference, byte for byte — both
// the product and the patch matrix Backward reads — at GOMAXPROCS ∈
// {1,2,4,16}, so sharding by (sample, oy) rows is dispatch only.
func TestIm2RowMatMulMatchesTwoCall(t *testing.T) {
	rng := xrand.New(141)
	for _, g := range im2rowMatMulCases {
		for _, oc := range im2rowMatMulOutC {
			x, wT, wantP, want := fusedOperands(rng, g, oc)
			for _, procs := range []int{1, 2, 4, 16} {
				old := runtime.GOMAXPROCS(procs)
				patches := New(wantP.Shape()...)
				patches.Fill(99) // stale garbage must be fully overwritten
				got := New(want.Shape()...)
				got.Fill(99)
				Im2RowMatMulInto(got, patches, x, wT, g)
				runtime.GOMAXPROCS(old)
				what := "GOMAXPROCS=" + itoa(procs) + " K=" + itoa(g.K) + " stride=" + itoa(g.Stride) + " OutC=" + itoa(oc)
				sameBits(t, what+" patches", patches.Data(), wantP.Data())
				sameBits(t, what+" product", got.Data(), want.Data())
			}
		}
	}
}

// TestIm2RowMatMulExplicitWorkers drives the conv shard split directly at
// worker counts the GOMAXPROCS gate would never pick — odd counts, more
// workers than output rows — so unit ranges that split a sample at any
// oy, and single-row shards, are pinned independently of the gate.
func TestIm2RowMatMulExplicitWorkers(t *testing.T) {
	rng := xrand.New(142)
	g := ConvGeom{InC: 2, InH: 7, InW: 6, K: 3, Stride: 1, Pad: 1}
	for _, oc := range im2rowMatMulOutC {
		x, wT, wantP, want := fusedOperands(rng, g, oc)
		units := 3 * g.OutH()
		for _, workers := range []int{1, 2, 3, 5, 16, units, units + 5} {
			patches := New(wantP.Shape()...)
			patches.Fill(99)
			got := New(want.Shape()...)
			got.Fill(99)
			task := poolTask{c: got.Data(), a: patches.Data(), bk: wT.Data(), k: wT.Dim(0), n: oc, x: x.Data(), g: g}
			task.shard(units, g.OutW(), workers)
			what := "workers=" + itoa(workers) + " OutC=" + itoa(oc)
			sameBits(t, what+" patches", patches.Data(), wantP.Data())
			sameBits(t, what+" product", got.Data(), want.Data())
		}
	}
}

// TestIm2RowMatMulSteadyStateAllocs keeps the fused entry allocation-free
// both below the work gate (serial on the caller) and above it at
// GOMAXPROCS=2 (conv shards travel by value through the pool).
func TestIm2RowMatMulSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	rng := xrand.New(143)
	for _, g := range []ConvGeom{
		{InC: 3, InH: 16, InW: 16, K: 3, Stride: 2, Pad: 1}, // serial
		{InC: 5, InH: 32, InW: 32, K: 3, Stride: 1, Pad: 1}, // sharded
	} {
		x, wT, wantP, want := fusedOperands(rng, g, 10)
		patches, got := New(wantP.Shape()...), New(want.Shape()...)
		Im2RowMatMulInto(got, patches, x, wT, g) // warm the pool
		if avg := testing.AllocsPerRun(100, func() { Im2RowMatMulInto(got, patches, x, wT, g) }); avg >= 1 {
			t.Fatalf("Im2RowMatMulInto %+v allocates %.2f/op in steady state, want 0", g, avg)
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
