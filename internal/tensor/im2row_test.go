package tensor

import (
	"testing"

	"repro/internal/xrand"
)

// batchOf stacks n randomly filled CHW samples into an [N,C,H,W] tensor and
// also returns the individual samples.
func batchOf(rng *xrand.RNG, n int, g ConvGeom) (*Tensor, []*Tensor) {
	batch := New(n, g.InC, g.InH, g.InW)
	rng.FillUniform(batch.Data(), -1, 1)
	per := make([]*Tensor, n)
	sampleLen := g.InC * g.InH * g.InW
	for s := 0; s < n; s++ {
		per[s] = FromSlice(batch.Data()[s*sampleLen:(s+1)*sampleLen], g.InC, g.InH, g.InW)
	}
	return batch, per
}

// naiveIm2Col is the reference lowering of one CHW sample, straight from
// the definition, one tap at a time: element (c·K·K + ky·K + kx, p) of the
// (InC·K·K) × (OutH·OutW) result is the input pixel tap (ky,kx) of output
// position p reads, or 0 where the tap falls in the padding.
func naiveIm2Col(x *Tensor, g ConvGeom) *Tensor {
	cols := New(g.InC*g.K*g.K, g.OutH()*g.OutW())
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				for oy := 0; oy < g.OutH(); oy++ {
					for ox := 0; ox < g.OutW(); ox++ {
						iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							cols.Set(x.At(c, iy, ix), (c*g.K+ky)*g.K+kx, oy*g.OutW()+ox)
						}
					}
				}
			}
		}
	}
	return cols
}

// naiveCol2Im is the reference adjoint of naiveIm2Col: every tap adds its
// gradient to the input pixel it read, in ascending (c,ky,kx), then (oy,ox)
// order.
func naiveCol2Im(cols *Tensor, g ConvGeom) *Tensor {
	x := New(g.InC, g.InH, g.InW)
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				for oy := 0; oy < g.OutH(); oy++ {
					for ox := 0; ox < g.OutW(); ox++ {
						iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							x.Set(x.At(c, iy, ix)+cols.At((c*g.K+ky)*g.K+kx, oy*g.OutW()+ox), c, iy, ix)
						}
					}
				}
			}
		}
	}
	return x
}

// TestIm2RowMatchesIm2Col checks the patch-major batched lowering against
// the naive column-major one: row (n·P + p) of Im2Row must equal column p
// of sample n's naiveIm2Col.
func TestIm2RowMatchesIm2Col(t *testing.T) {
	rng := xrand.New(41)
	for _, g := range []ConvGeom{
		{InC: 3, InH: 8, InW: 8, K: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 7, InW: 5, K: 3, Stride: 1, Pad: 1},
		{InC: 1, InH: 6, InW: 6, K: 2, Stride: 2, Pad: 0},
		{InC: 2, InH: 9, InW: 9, K: 5, Stride: 2, Pad: 2},
	} {
		const n = 3
		batch, per := batchOf(rng, n, g)
		p := g.OutH() * g.OutW()
		l := g.InC * g.K * g.K
		rows := New(n*p, l)
		rows.Fill(99) // every element must be overwritten
		Im2RowInto(rows, batch, g)
		for s := 0; s < n; s++ {
			cols := naiveIm2Col(per[s], g)
			for pi := 0; pi < p; pi++ {
				for li := 0; li < l; li++ {
					got := rows.At(s*p+pi, li)
					want := cols.At(li, pi)
					if got != want {
						t.Fatalf("geom %+v sample %d patch %d elem %d: im2row %v vs naive %v", g, s, pi, li, got, want)
					}
				}
			}
		}
	}
}

// col2im folds a tap-major gradient — [N, InC·K·K, OutH·OutW], a single
// sample treated as N=1 — back into dst with MatMulCol2ImInto against an
// identity weight matrix, which makes cols an exact copy of grad (each
// element is its one unit product plus exact zeros), so the call reduces
// to its fold.
func col2im(dst, grad *Tensor, g ConvGeom) {
	l, p := g.InC*g.K*g.K, g.OutH()*g.OutW()
	eye := New(l, l)
	for i := 0; i < l; i++ {
		eye.Set(1, i, i)
	}
	MatMulCol2ImInto(dst, New(grad.Len()/p, p), eye, grad, g)
}

// tapMajor transposes the patch-major rows (N·P)×L into the tap-major
// [N, L, P] layout MatMulCol2ImInto folds.
func tapMajor(rows *Tensor, n int) *Tensor {
	p, l := rows.Dim(0)/n, rows.Dim(1)
	out := New(n, l, p)
	for s := 0; s < n; s++ {
		for pi := 0; pi < p; pi++ {
			for li := 0; li < l; li++ {
				out.Set(rows.At(s*p+pi, li), s, li, pi)
			}
		}
	}
	return out
}

// TestRow2ImIsAdjoint verifies <Im2Row(x), R> == <x, Col2Im(R)> — the
// defining property of the backward fold — and that the fold matches the
// naive per-tap scatter bit for bit.
func TestRow2ImIsAdjoint(t *testing.T) {
	rng := xrand.New(42)
	g := ConvGeom{InC: 2, InH: 8, InW: 6, K: 3, Stride: 2, Pad: 1}
	const n = 2
	batch, _ := batchOf(rng, n, g)
	p := g.OutH() * g.OutW()
	l := g.InC * g.K * g.K

	rows := New(n*p, l)
	Im2RowInto(rows, batch, g)
	r := New(n*p, l)
	rng.FillUniform(r.Data(), -1, 1)
	grad := tapMajor(r, n)

	back := New(n, g.InC, g.InH, g.InW)
	back.Fill(99) // the fold must clear before it accumulates
	col2im(back, grad, g)

	lhs := rows.Dot(r)
	var rhs float64
	for i, v := range back.Data() {
		rhs += float64(v) * float64(batch.Data()[i])
	}
	if diff := lhs - rhs; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("adjoint mismatch: <Ax,y>=%v <x,Aty>=%v", lhs, rhs)
	}

	// Per-sample agreement with the naive scatter over the same tap-major
	// columns.
	sampleLen := g.InC * g.InH * g.InW
	for s := 0; s < n; s++ {
		want := naiveCol2Im(FromSlice(grad.Data()[s*l*p:(s+1)*l*p], l, p), g)
		got := back.Data()[s*sampleLen : (s+1)*sampleLen]
		for i := range got {
			if got[i] != want.Data()[i] {
				t.Fatalf("sample %d: the fold diverges from the naive scatter at %d: %v vs %v", s, i, got[i], want.Data()[i])
			}
		}
	}
}
