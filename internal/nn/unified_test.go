package nn

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testenv"
	"repro/internal/xrand"
)

// The single-frame conv/linear paths run on the k-major SIMD kernel; these
// tests pin them byte-for-byte against naive scalar loops written straight
// from the definitions. Every reference sum starts at zero, runs in
// ascending index order and rounds each product before adding it
// (float32(a * b), so no compiler fuses it into an FMA): the per-element
// order the production path must reproduce. Any kernel change that alters
// a single bit of a forward or backward fails.

// convTap is input pixel (ch, iy, ix) of the CHW sample x, or 0 where the
// tap falls in the padding.
func convTap(x *tensor.Tensor, ch, iy, ix int) float32 {
	if iy < 0 || iy >= x.Dim(1) || ix < 0 || ix >= x.Dim(2) {
		return 0
	}
	return x.At(ch, iy, ix)
}

// directConvForward computes a single-sample convolution tap by tap: each
// output is the ascending (c,ky,kx) dot of its window with the filter, plus
// the bias.
func directConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	ps := c.Params()
	wd, bd := ps[0].Value.Data(), ps[1].Value.Data()
	g := tensor.ConvGeom{InC: c.InC, InH: x.Dim(1), InW: x.Dim(2), K: c.K, Stride: c.Stride, Pad: c.Pad}
	out := tensor.New(c.OutC, g.OutH(), g.OutW())
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < g.OutH(); oy++ {
			for ox := 0; ox < g.OutW(); ox++ {
				var s float32
				for ch := 0; ch < c.InC; ch++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							v := convTap(x, ch, oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx)
							s += float32(v * wd[((oc*c.InC+ch)*c.K+ky)*c.K+kx])
						}
					}
				}
				out.Set(s+bd[oc], oc, oy, ox)
			}
		}
	}
	return out
}

// directConvBackward is the single-sample adjoint computed tap by tap: dW
// sums output gradient × input tap over output positions, db sums the
// output gradient, and dX scatters, for each tap (c,ky,kx) and output
// position in ascending order, the dot of the output gradient with that
// tap's filter weights. It returns (dW, db, dX) without touching the layer.
func directConvBackward(c *Conv2D, x, grad *tensor.Tensor) (dW, db, dX *tensor.Tensor) {
	wd := c.Params()[0].Value.Data()
	g := tensor.ConvGeom{InC: c.InC, InH: x.Dim(1), InW: x.Dim(2), K: c.K, Stride: c.Stride, Pad: c.Pad}
	l := c.InC * c.K * c.K
	dW = tensor.New(c.OutC, l)
	db = tensor.New(c.OutC)
	dX = tensor.New(g.InC, g.InH, g.InW)
	for oc := 0; oc < c.OutC; oc++ {
		var s float32
		for oy := 0; oy < g.OutH(); oy++ {
			for ox := 0; ox < g.OutW(); ox++ {
				s += grad.At(oc, oy, ox)
			}
		}
		db.Data()[oc] = s
	}
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				tap := (ch*c.K+ky)*c.K + kx
				for oc := 0; oc < c.OutC; oc++ {
					var s float32
					for oy := 0; oy < g.OutH(); oy++ {
						for ox := 0; ox < g.OutW(); ox++ {
							v := convTap(x, ch, oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx)
							s += float32(grad.At(oc, oy, ox) * v)
						}
					}
					dW.Data()[oc*l+tap] = s
				}
				for oy := 0; oy < g.OutH(); oy++ {
					for ox := 0; ox < g.OutW(); ox++ {
						iy, ix := oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							continue
						}
						var s float32
						for oc := 0; oc < c.OutC; oc++ {
							s += float32(grad.At(oc, oy, ox) * wd[oc*l+tap])
						}
						dX.Set(dX.At(ch, iy, ix)+s, ch, iy, ix)
					}
				}
			}
		}
	}
	return dW, db, dX
}

// TestConv2DUnifiedMatchesScalarReference pins the unified single-frame
// conv forward AND backward (dW, db, dX) to the direct per-tap convolution
// byte for byte, across geometries and GOMAXPROCS settings (kernel choice
// is CPU-gated, never worker-count-gated).
func TestConv2DUnifiedMatchesScalarReference(t *testing.T) {
	type geom struct{ inC, outC, k, stride, pad, h, w int }
	geoms := []geom{
		{3, 12, 3, 2, 1, 32, 32}, // DistNet/TinyDet first stage
		{12, 24, 3, 2, 1, 16, 16},
		{8, 5, 3, 1, 1, 9, 7}, // odd spatial size, stride 1
		{4, 8, 3, 2, 1, 10, 14},
		{6, 7, 1, 1, 0, 9, 11},    // 1×1, pad 0: the lowering copies the input
		{3, 6, 5, 1, 2, 12, 10},   // K=5
		{5, 9, 3, 3, 1, 13, 11},   // stride 3
		{26, 10, 3, 1, 1, 64, 64}, // UNet dec1
		{10, 3, 1, 1, 0, 64, 64},  // UNet 1×1 head
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, ge := range geoms {
			rng := xrand.New(int64(ge.inC*100 + ge.outC))
			c := NewConv2D(rng, ge.inC, ge.outC, ge.k, ge.stride, ge.pad)
			x := tensor.New(ge.inC, ge.h, ge.w)
			rng.FillUniform(x.Data(), -1, 1)

			got := c.Forward(x, false)
			want := directConvForward(c, x)
			if !got.ShapeEq(want.Shape()...) {
				t.Fatalf("procs=%d %+v: shape %v vs %v", procs, ge, got.Shape(), want.Shape())
			}
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("procs=%d %+v: forward diverges at %d: %v vs %v",
						procs, ge, i, got.Data()[i], want.Data()[i])
				}
			}

			grad := tensor.New(got.Shape()...)
			rng.FillUniform(grad.Data(), -1, 1)
			gradCopy := grad.Clone()
			dX := c.Backward(grad)
			wantW, wantB, wantX := directConvBackward(c, x, gradCopy)
			for i := range wantX.Data() {
				if dX.Data()[i] != wantX.Data()[i] {
					t.Fatalf("procs=%d %+v: dX diverges at %d", procs, ge, i)
				}
			}
			ps := c.Params()
			for i := range wantW.Data() {
				if ps[0].Grad.Data()[i] != wantW.Data()[i] {
					t.Fatalf("procs=%d %+v: dW diverges at %d: %v vs %v",
						procs, ge, i, ps[0].Grad.Data()[i], wantW.Data()[i])
				}
			}
			for i := range wantB.Data() {
				if ps[1].Grad.Data()[i] != wantB.Data()[i] {
					t.Fatalf("procs=%d %+v: db diverges at %d", procs, ge, i)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestLinearUnifiedMatchesScalarReference pins the unified single-sample
// dense forward and backward to the previous explicit gemv loops.
func TestLinearUnifiedMatchesScalarReference(t *testing.T) {
	rng := xrand.New(31)
	const in, out = 57, 13
	l := NewLinear(rng, in, out)
	ps := l.Params()
	wd := ps[0].Value.Data()
	bd := ps[1].Value.Data()
	x := tensor.New(in)
	rng.FillUniform(x.Data(), -1, 1)

	got := l.Forward(x, false)
	if got.Rank() != 1 || got.Dim(0) != out {
		t.Fatalf("single Linear output shape %v", got.Shape())
	}
	for o := 0; o < out; o++ {
		var s float32
		for i := 0; i < in; i++ {
			s += float32(wd[o*in+i] * x.Data()[i])
		}
		if want := s + bd[o]; got.Data()[o] != want {
			t.Fatalf("forward diverges at %d: %v vs %v", o, got.Data()[o], want)
		}
	}

	grad := tensor.New(out)
	rng.FillUniform(grad.Data(), -1, 1)
	dx := l.Backward(grad)
	if dx.Rank() != 1 || dx.Dim(0) != in {
		t.Fatalf("single Linear input grad shape %v", dx.Shape())
	}
	wg := ps[0].Grad.Data()
	bg := ps[1].Grad.Data()
	for i := 0; i < in; i++ {
		var s float32
		for o := 0; o < out; o++ {
			s += float32(grad.Data()[o] * wd[o*in+i])
		}
		if dx.Data()[i] != s {
			t.Fatalf("dx diverges at %d: %v vs %v", i, dx.Data()[i], s)
		}
	}
	for o := 0; o < out; o++ {
		if bg[o] != grad.Data()[o] {
			t.Fatalf("db diverges at %d", o)
		}
		for i := 0; i < in; i++ {
			if want := grad.Data()[o] * x.Data()[i]; wg[o*in+i] != want {
				t.Fatalf("dW diverges at (%d,%d)", o, i)
			}
		}
	}
}

// TestBackwardInputMatchesBackward checks the attack-path backward: the
// input gradient must equal a full Backward's bit for bit while leaving
// every parameter gradient untouched.
func TestBackwardInputMatchesBackward(t *testing.T) {
	for _, n := range []int{1, 4} {
		net, batch, _ := batchTestNet(n)
		ref := net.Clone()

		seedB := tensor.New(n, 2)
		for s := 0; s < n; s++ {
			seedB.Data()[s*2], seedB.Data()[s*2+1] = 0.9, -0.4
		}
		ref.Forward(batch, false)
		ref.ZeroGrad()
		want := ref.Backward(seedB).Clone()

		net.Forward(batch, false)
		net.ZeroGrad()
		got := net.BackwardInput(seedB)
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("n=%d: BackwardInput diverges from Backward at %d", n, i)
			}
		}
		for _, p := range net.Params() {
			for i, v := range p.Grad.Data() {
				if v != 0 {
					t.Fatalf("n=%d: BackwardInput accumulated into %s grad at %d", n, p.Name, i)
				}
			}
		}
	}
}

// TestLinearSingleSteadyStateAllocs extends the allocation budgets to the
// unified single-sample dense path (forward, full backward and the
// input-only backward).
func TestLinearSingleSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	rng := xrand.New(7)
	l := NewLinear(rng, 96, 24)
	x := tensor.New(96)
	rng.FillUniform(x.Data(), -1, 1)
	out := l.Forward(x, false)
	grad := tensor.New(out.Shape()...)
	grad.Fill(0.25)
	l.Backward(grad)
	l.BackwardInput(grad)
	if avg := testing.AllocsPerRun(100, func() { l.Forward(x, false) }); avg >= 1 {
		t.Fatalf("single Linear.Forward allocates %.2f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { l.Backward(grad) }); avg >= 1 {
		t.Fatalf("single Linear.Backward allocates %.2f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { l.BackwardInput(grad) }); avg >= 1 {
		t.Fatalf("single Linear.BackwardInput allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestConv2DBackwardInputSteadyStateAllocs guards the attack-path conv
// backward the same way the full backward is guarded.
func TestConv2DBackwardInputSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	rng := xrand.New(1)
	c := NewConv2D(rng, 3, 16, 3, 2, 1)
	x := tensor.New(3, 32, 32)
	out := c.Forward(x, false)
	grad := tensor.New(out.Shape()...)
	grad.Fill(0.5)
	c.BackwardInput(grad)
	if avg := testing.AllocsPerRun(100, func() { c.BackwardInput(grad) }); avg >= 1 {
		t.Fatalf("Conv2D.BackwardInput allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestBatchBackwardSteadyStateAllocs extends the allocation budgets to the
// batched backward the trainers now drive: once the workspace is sized,
// a batched forward+backward pass must not touch the allocator.
func TestBatchBackwardSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	net, batch, _ := batchTestNet(8)
	seedB := tensor.New(8, 2)
	seedB.Fill(0.5)
	step := func() {
		net.Forward(batch, false)
		net.ZeroGrad()
		net.Backward(seedB)
	}
	step() // size the workspace
	if avg := testing.AllocsPerRun(50, step); avg >= 1 {
		t.Fatalf("batched forward+backward allocates %.2f/op in steady state, want 0", avg)
	}
}
