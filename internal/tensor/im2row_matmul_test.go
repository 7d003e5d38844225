package tensor

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/testenv"
	"repro/internal/xrand"
)

// im2colMatMulCases are the conv forward's edge cases: inputs whose
// (sample, output row) shards split a sample mid-image at 2 and 4 workers,
// stride 2, a 1×1 unpadded kernel, K=5 at stride 3, and output channel
// counts (the product's rows) that reach every row block of the lane
// kernels: on the AVX-512 32-column body 3 runs a 2-row and a 1-row
// block, 10 two 4-row blocks and a 2-row block, 12 three 4-row blocks and
// 17 four 4-row blocks and a single row. Most are past parallelMinWork at
// N=3 so the sharded path runs; N=1 and the stride-3 case stay below it
// and pin the serial path.
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

// twoCallForward is the conv forward IndirectConvInto replaces: each
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

// stalePadded returns a padded copy for n samples of t's geometry full of
// garbage the forward must overwrite.
func stalePadded(t *ConvTaps, n int) *Tensor {
	xp := New(n * t.PaddedLen())
	xp.Fill(99)
	return xp
}

// TestIm2RowMatMulMatchesTwoCall pins the indirect forward,
// IndirectConvInto, to the naive tap-major lowering followed by the naive
// GEMM reference, byte for byte — both the product and the lowering
// Backward reads from the padded copy — at GOMAXPROCS ∈ {1,2,4,16} and
// N ∈ {1,3}, so sharding by (sample, channel) copies and (sample, output
// row) bands is dispatch only.
func TestIm2RowMatMulMatchesTwoCall(t *testing.T) {
	rng := xrand.New(141)
	for _, g := range im2colMatMulCases {
		taps := NewConvTaps(g)
		for _, oc := range im2colMatMulOutC {
			for _, n := range []int{1, 3} {
				x, w, bias, wantCols, want := fusedOperands(rng, n, g, oc)
				for _, procs := range []int{1, 2, 4, 16} {
					old := runtime.GOMAXPROCS(procs)
					xp := stalePadded(taps, n)
					got := New(want.Shape()...)
					got.Fill(99)
					IndirectConvInto(got, xp, x, w, bias, taps)
					runtime.GOMAXPROCS(old)
					what := "GOMAXPROCS=" + itoa(procs) + " N=" + itoa(n) + " K=" + itoa(g.K) + " stride=" + itoa(g.Stride) + " OutC=" + itoa(oc)
					sameBits(t, what+" cols", tapCols(xp.Data(), taps, n).Data(), wantCols.Data())
					sameBits(t, what+" product", got.Data(), want.Data())
				}
			}
		}
	}
}

// TestIndirectConvMatchesLowering sweeps the indirect forward against the
// naive tap-major lowering plus the naive GEMM plus the bias, bit for bit,
// over GOMAXPROCS ∈ {1,2,4,16} × N ∈ {1,3} × stride ∈ {1,2,3} ×
// K ∈ {1,3,5} × pad ∈ {0,1,2} × OutW ∈ {3,6,8,17,64}: output rows that
// take the scalar path, a 4-block with an overlapping tail, one 8-block,
// a 16-block with an overlapping tail and two 32-blocks. (Where K=1 and
// a wide pad make a narrow output impossible, the narrowest one is used.)
// Its 6 output channels run as a 4-row and a 2-row block on the AVX-512
// 32-column body; im2colMatMulOutC reaches the single-row block.
// The inputs hold ±0, NaN and ±Inf, and one weight is +Inf: a padding tap
// must be multiplied, not skipped, because Inf·0 is NaN.
//
// The input NaN is the one the CPU itself generates for Inf·0
// (generatedNaN). When a sum meets two NaNs, the one that survives
// depends on the add's operand order: the lane kernels add the product to
// the accumulator, while the compiled reference may add the accumulator
// to the product. With a single NaN bit pattern in play that choice
// cannot show, and every other bit is still compared.
func TestIndirectConvMatchesLowering(t *testing.T) {
	nan := generatedNaN()
	rng := xrand.New(145)
	const inC, oc = 3, 6
	for _, stride := range []int{1, 2, 3} {
		for _, k := range []int{1, 3, 5} {
			for _, pad := range []int{0, 1, 2} {
				for _, outW := range []int{3, 6, 8, 17, 64} {
					inW := max(1, (outW-1)*stride+k-2*pad)
					g := ConvGeom{InC: inC, InH: max(1, 3*stride+k-2*pad), InW: inW, K: k, Stride: stride, Pad: pad}
					if g.Validate() != nil {
						t.Fatalf("invalid sweep geometry %+v", g)
					}
					taps := NewConvTaps(g)
					for _, n := range []int{1, 3} {
						x, w, bias, _, _ := fusedOperands(rng, n, g, oc)
						xd := x.Data()
						for i, v := range xd {
							if math.IsNaN(float64(v)) {
								xd[i] = nan
							}
						}
						xd[rng.Intn(len(xd))] = float32(math.Inf(1))
						xd[rng.Intn(len(xd))] = float32(math.Inf(-1))
						xd[rng.Intn(len(xd))] = float32(math.Copysign(0, -1))
						w.Data()[rng.Intn(w.Len())] = float32(math.Inf(1))
						_, want := twoCallForward(x, w, bias, n, g)
						for _, procs := range []int{1, 2, 4, 16} {
							old := runtime.GOMAXPROCS(procs)
							got := New(want.Shape()...)
							got.Fill(99)
							IndirectConvInto(got, stalePadded(taps, n), x, w, bias, taps)
							runtime.GOMAXPROCS(old)
							sameBits(t, "GOMAXPROCS="+itoa(procs)+" N="+itoa(n)+" stride="+itoa(stride)+" K="+itoa(k)+" pad="+itoa(pad)+" OutW="+itoa(g.OutW()), got.Data(), want.Data())
						}
					}
				}
			}
		}
	}
}

// infTimesZero holds the operands of generatedNaN in package variables,
// so the compiler cannot fold the product.
var infTimesZero = [2]float32{float32(math.Inf(1)), 0}

// generatedNaN returns the NaN this CPU's float32 multiply produces for
// Inf·0: 0xffc00000 on amd64, 0x7fc00000 on arm64.
func generatedNaN() float32 { return infTimesZero[0] * infTimesZero[1] }

// TestIm2RowMatMulExplicitWorkers drives the conv shard split directly at
// worker counts the GOMAXPROCS gate would never pick — odd counts, more
// workers than output rows — so bands that split a sample at any output
// row, rows narrower than one 16-column block (OutW 6) and rows below one
// 4-column lane block (OutW 3, the scalar path) are pinned independently
// of the gate.
func TestIm2RowMatMulExplicitWorkers(t *testing.T) {
	rng := xrand.New(142)
	for _, g := range []ConvGeom{
		{InC: 2, InH: 7, InW: 6, K: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 9, InW: 5, K: 3, Stride: 2, Pad: 1},
	} {
		taps := NewConvTaps(g)
		for _, oc := range im2colMatMulOutC {
			x, w, bias, wantCols, want := fusedOperands(rng, 3, g, oc)
			units := 3 * g.OutH()
			for _, workers := range []int{1, 2, 3, 5, 16, units, units + 5} {
				xp := stalePadded(taps, 3)
				got := New(want.Shape()...)
				got.Fill(99)
				indirectConv(got.Data(), xp.Data(), x.Data(), w.Data(), bias.Data(), taps, 3, oc, workers)
				what := "OutW=" + itoa(g.OutW()) + " workers=" + itoa(workers) + " OutC=" + itoa(oc)
				sameBits(t, what+" cols", tapCols(xp.Data(), taps, 3).Data(), wantCols.Data())
				sameBits(t, what+" product", got.Data(), want.Data())
			}
		}
	}
}

// TestIm2RowMatMulSteadyStateAllocs keeps the forward entry
// allocation-free: exactly 0 allocs/op below the work gate (serial on the
// caller), and below 1 above it at GOMAXPROCS=2 (the pool may refill its
// job cache after a GC).
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
		x, w, bias, _, want := fusedOperands(rng, 1, tc.g, 10)
		taps := NewConvTaps(tc.g)
		xp, got := New(taps.PaddedLen()), New(want.Shape()...)
		IndirectConvInto(got, xp, x, w, bias, taps) // warm the pool
		avg := testing.AllocsPerRun(100, func() { IndirectConvInto(got, xp, x, w, bias, taps) })
		if (tc.sharded && avg >= 1) || (!tc.sharded && avg != 0) {
			t.Fatalf("IndirectConvInto %+v (sharded %v) allocates %.2f/op in steady state", tc.g, tc.sharded, avg)
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
// InW 37 at stride 2 gives OutW 19 at K=3, two whole vectors and a tail
// of the fold's block adds and of its even/odd merge.
func TestMatMulCol2ImMatchesTwoCall(t *testing.T) {
	rng := xrand.New(144)
	const oc = 10
	for _, n := range []int{1, 3} {
		for _, inC := range []int{1, 3, 12} {
			for _, stride := range []int{1, 2, 3} {
				for _, k := range []int{1, 3, 5} {
					for _, pad := range []int{0, 1, 2} {
						widths := []int{9}
						if stride == 2 && k == 3 {
							widths = append(widths, 37)
						}
						for _, inW := range widths {
							g := ConvGeom{InC: inC, InH: 11, InW: inW, K: k, Stride: stride, Pad: pad}
							taps := NewConvTaps(g)
							grad, wT := col2imOperands(rng, n, g, oc)
							want := col2imReference(grad, wT, n, g)
							what := "N=" + itoa(n) + " InC=" + itoa(inC) + " InW=" + itoa(inW) + " stride=" + itoa(stride) + " K=" + itoa(k) + " pad=" + itoa(pad)
							for _, procs := range []int{1, 2, 4, 16} {
								old := runtime.GOMAXPROCS(procs)
								cols := New(n*g.InC*k*k, g.OutH()*g.OutW())
								cols.Fill(99)
								got := New(want.Shape()...)
								got.Fill(99) // stale garbage must be fully overwritten
								MatMulCol2ImInto(got, cols, stalePadded(taps, n), wT, grad, taps)
								runtime.GOMAXPROCS(old)
								sameBits(t, what+" GOMAXPROCS="+itoa(procs), got.Data(), want.Data())
							}
						}
					}
				}
			}
		}
	}
}
