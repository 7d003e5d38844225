package nn

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// makeGemvLinear builds the dense-head shape the transpose cache targets:
// a single-row (m=1) forward through a wide Linear.
func makeGemvLinear(t testing.TB) (*Linear, *tensor.Tensor) {
	rng := xrand.New(3)
	l := NewLinear(rng, 256, 48)
	x := tensor.New(256)
	rng.FillNormal(x.Data(), 0, 1)
	return l, x
}

// TestLinearTransposeCacheTracksMutations certifies the parameter-version
// fold: repeated forwards reuse the cached Wᵀ, and every mutation path —
// an optimizer step, DecodeParams, a finite-difference probe, direct
// write + MarkMutated — refreshes it so outputs always match a cache-free
// layer with identical weights.
func TestLinearTransposeCacheTracksMutations(t *testing.T) {
	l, x := makeGemvLinear(t)

	fresh := func() []float32 {
		// A brand-new layer sharing l's weights computes the
		// cache-free reference output.
		ref := &Linear{In: l.In, Out: l.Out, w: l.w.clone(), b: l.b.clone()}
		return append([]float32(nil), ref.Forward(x, false).Data()...)
	}

	check := func(stage string) {
		t.Helper()
		got := l.Forward(x, false).Data()
		want := fresh()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: output[%d] = %v, want %v (stale transpose cache?)", stage, i, got[i], want[i])
			}
		}
	}

	check("first forward")
	check("cached forward")

	// Optimizer step mutates weights through Step and must invalidate.
	grad := tensor.New(l.Out)
	for i := range grad.Data() {
		grad.Data()[i] = float32(i%5) - 2
	}
	l.Forward(x, false)
	l.Backward(grad)
	NewAdam(0.01).Step(l.Params())
	check("after Adam step")

	// Direct write + MarkMutated (the finite-difference protocol).
	l.w.Value.Data()[7] += 0.25
	l.w.MarkMutated()
	check("after direct mutation")

	blob, err := EncodeParams(NewLinear(xrand.New(9), l.In, l.Out).Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeParams(blob, l.Params()); err != nil {
		t.Fatal(err)
	}
	check("after DecodeParams")

	target := tensor.New(l.Out)
	if _, _, err := CheckParamGradients(NewSequential(l), x, mseLoss(target), 2); err != nil {
		t.Fatal(err)
	}
	check("after a finite-difference probe")
}

// TestConv2DTransposeCacheTracksMutations is the conv twin of the Linear
// test above: the input gradient reads the cached Wᵀ (the forward reads W
// itself), repeated calls reuse it, and every mutation path — an optimizer
// step, DecodeParams, a finite-difference probe, direct write +
// MarkMutated — rebuilds it, so outputs always match a cache-free layer
// with identical weights. A clone starts with an empty cache.
func TestConv2DTransposeCacheTracksMutations(t *testing.T) {
	rng := xrand.New(5)
	c := NewConv2D(rng, 3, 8, 3, 2, 1)
	net := NewSequential(c) // one workspace throughout: only versions move
	x := tensor.New(3, 10, 9)
	rng.FillNormal(x.Data(), 0, 1)
	grad := tensor.New(8, 5, 5)
	rng.FillNormal(grad.Data(), 0, 1)

	run := func(c *Conv2D) (out, dx []float32) {
		out = append(out, c.Forward(x, false).Data()...)
		return out, append(dx, c.BackwardInput(grad).Data()...)
	}
	built := c.wT.version
	check := func(stage string, wantRebuild bool) {
		t.Helper()
		got, gotDX := run(c)
		if rebuilt := c.wT.version != built; rebuilt != wantRebuild || c.wT.version != c.w.Version() {
			t.Fatalf("%s: cache built at version %d (was %d), weights at %d, want rebuild=%v",
				stage, c.wT.version, built, c.w.Version(), wantRebuild)
		}
		built = c.wT.version
		want, wantDX := run(&Conv2D{InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad, w: c.w.clone(), b: c.b.clone()})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: output[%d] = %v, want %v (stale transpose cache?)", stage, i, got[i], want[i])
			}
		}
		for i := range wantDX {
			if gotDX[i] != wantDX[i] {
				t.Fatalf("%s: input gradient[%d] = %v, want %v (stale transpose cache?)", stage, i, gotDX[i], wantDX[i])
			}
		}
	}

	check("first forward", true)
	check("cached forward", false)

	c.Forward(x, false)
	c.Backward(grad)
	NewAdam(0.01).Step(c.Params())
	check("after Adam step", true)

	blob, err := EncodeParams(NewConv2D(xrand.New(10), 3, 8, 3, 2, 1).Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeParams(blob, c.Params()); err != nil {
		t.Fatal(err)
	}
	check("after DecodeParams", true)

	target := tensor.New(8, 5, 5)
	if _, _, err := CheckParamGradients(net, x, mseLoss(target), 2); err != nil {
		t.Fatal(err)
	}
	check("after a finite-difference probe", true)

	c.w.Value.Data()[7] += 0.25
	c.w.MarkMutated()
	check("after direct mutation", true)

	if cl := c.Clone().(*Conv2D); cl.wT != (transposeCache{}) {
		t.Fatalf("Clone carries the transpose cache %+v, want it empty", cl.wT)
	}
}

// TestConv2DBackwardIgnoresInputMutation pins that dW reads the layer's
// own lowering, not the caller's input: an attack loop perturbs its frame
// in place between Forward and Backward. The 1×1 unpadded head, whose
// lowering equals its input, is the case an in-place shortcut would break.
func TestConv2DBackwardIgnoresInputMutation(t *testing.T) {
	for _, ge := range []struct{ inC, outC, k, stride, pad int }{
		{10, 3, 1, 1, 0},
		{3, 8, 3, 2, 1},
	} {
		rng := xrand.New(11)
		c := NewConv2D(rng, ge.inC, ge.outC, ge.k, ge.stride, ge.pad)
		ref := c.Clone().(*Conv2D)
		x := tensor.New(2, ge.inC, 8, 8)
		rng.FillNormal(x.Data(), 0, 1)
		xRef := x.Clone()
		out := c.Forward(x, true)
		ref.Forward(xRef, true)
		grad := tensor.New(out.Shape()...)
		rng.FillNormal(grad.Data(), 0, 1)
		x.Fill(7) // the caller reuses its input buffer before Backward
		c.Backward(grad)
		ref.Backward(grad)
		for i, p := range c.Params() {
			got, want := p.Grad.Data(), ref.Params()[i].Grad.Data()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("K=%d %s grad[%d] = %v after the input changed, want %v", ge.k, p.Name, j, got[j], want[j])
				}
			}
		}
	}
}

func TestParamVersionSemantics(t *testing.T) {
	p := newParam("w", tensor.New(4, 4))
	if p.Version() == 0 {
		t.Fatal("fresh params must start at a positive version")
	}
	v := p.Version()
	p.MarkMutated()
	if p.Version() != v+1 {
		t.Fatalf("MarkMutated moved version %d -> %d", v, p.Version())
	}
	c := p.clone()
	if c.Version() == 0 {
		t.Fatal("cloned params must start at a positive version")
	}
}

// TestLinearGemvSteadyStateAllocs guards the m=1 dense-head path: with the
// transpose folded behind the version counter, steady-state single-sample
// forwards allocate nothing.
func TestLinearGemvSteadyStateAllocs(t *testing.T) {
	l, x := makeGemvLinear(t)
	l.Forward(x, false) // warm the workspace and the transpose cache
	if avg := testing.AllocsPerRun(100, func() { l.Forward(x, false) }); avg >= 1 {
		t.Fatalf("m=1 Linear forward allocates %.1f per call", avg)
	}
}

// BenchmarkLinearGemvForward measures the dense-head m=1 forward the
// transpose fold targets (before: one In×Out transpose per call).
func BenchmarkLinearGemvForward(b *testing.B) {
	rng := xrand.New(3)
	l := NewLinear(rng, 2048, 1)
	x := tensor.New(2048)
	rng.FillNormal(x.Data(), 0, 1)
	l.Forward(x, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, false)
	}
}
