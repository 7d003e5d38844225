package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func randInput(rng *xrand.RNG, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	rng.FillNormal(x.Data(), 0, 1)
	return x
}

func mseLoss(target *tensor.Tensor) LossFn {
	return func(out *tensor.Tensor) (float64, *tensor.Tensor) { return MSE(out, target) }
}

// buildTestNet returns a small conv net covering every layer type.
func buildTestNet(rng *xrand.RNG) *Sequential {
	return NewSequential(
		NewConv2D(rng, 2, 4, 3, 1, 1),
		NewGroupNorm(2, 4),
		NewLeakyReLU(0.1),
		NewMaxPool2D(2),
		NewConv2D(rng, 4, 6, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 6*2*2, 8),
		NewTanh(),
		NewLinear(rng, 8, 3),
	)
}

func TestForwardShapes(t *testing.T) {
	rng := xrand.New(1)
	net := buildTestNet(rng)
	x := randInput(rng.Split(), 2, 8, 8)
	out := net.Forward(x, false)
	if out.Len() != 3 {
		t.Fatalf("output len %d, want 3", out.Len())
	}
	if net.NumParams() == 0 {
		t.Fatal("network reports zero parameters")
	}
}

func TestInputGradientMatchesFiniteDifferences(t *testing.T) {
	rng := xrand.New(2)
	net := buildTestNet(rng)
	x := randInput(rng.Split(), 2, 8, 8)
	target := randInput(rng.Split(), 3)
	worst, err := CheckInputGradient(net, x, mseLoss(target), 24)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.05 {
		t.Fatalf("input gradient rel err %.4f exceeds tolerance", worst)
	}
}

func TestParamGradientsMatchFiniteDifferences(t *testing.T) {
	rng := xrand.New(3)
	// A smooth variant (no MaxPool/ReLU kinks) so central differences are
	// valid everywhere; the kinked layers are covered by exact-value tests.
	net := NewSequential(
		NewConv2D(rng, 2, 4, 3, 2, 1),
		NewGroupNorm(2, 4),
		NewTanh(),
		NewConv2D(rng, 4, 6, 3, 2, 1),
		NewTanh(),
		NewFlatten(),
		NewLinear(rng, 6*2*2, 8),
		NewTanh(),
		NewLinear(rng, 8, 3),
	)
	x := randInput(rng.Split(), 2, 8, 8)
	target := randInput(rng.Split(), 3)
	worst, name, err := CheckParamGradients(net, x, mseLoss(target), 6)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.05 {
		t.Fatalf("param gradient rel err %.4f at %s exceeds tolerance", worst, name)
	}
}

func TestBCEGradientCheck(t *testing.T) {
	rng := xrand.New(4)
	net := NewSequential(
		NewConv2D(rng, 1, 3, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 3*4*4, 5),
	)
	x := randInput(rng.Split(), 1, 8, 8)
	target := tensor.FromSlice([]float32{1, 0, 1, 0, 1}, 5)
	loss := func(out *tensor.Tensor) (float64, *tensor.Tensor) { return BCEWithLogits(out, target) }
	worst, err := CheckInputGradient(net, x, loss, 16)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.05 {
		t.Fatalf("BCE input grad rel err %.4f", worst)
	}
}

func TestSoftmaxCEGradientCheck(t *testing.T) {
	rng := xrand.New(5)
	net := NewSequential(NewFlatten(), NewLinear(rng, 12, 4))
	x := randInput(rng.Split(), 12)
	loss := func(out *tensor.Tensor) (float64, *tensor.Tensor) { return SoftmaxCE(out, 2) }
	worst, _, err := CheckParamGradients(net, x, loss, 8)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.05 {
		t.Fatalf("softmax CE param grad rel err %.4f", worst)
	}
}

func TestUpsampleGradientCheck(t *testing.T) {
	rng := xrand.New(6)
	net := NewSequential(
		NewConv2D(rng, 1, 2, 3, 2, 1),
		NewUpsample2x(),
		NewConv2D(rng, 2, 1, 3, 1, 1),
	)
	x := randInput(rng.Split(), 1, 8, 8)
	target := randInput(rng.Split(), 1, 8, 8)
	worst, err := CheckInputGradient(net, x, mseLoss(target), 16)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.05 {
		t.Fatalf("upsample grad rel err %.4f", worst)
	}
}

func TestLossValues(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2}, 2)
	target := tensor.FromSlice([]float32{0, 0}, 2)
	loss, grad := MSE(pred, target)
	if !almost(loss, 0.5*(1+4)/2, 1e-6) {
		t.Fatalf("MSE = %v", loss)
	}
	if !almost(float64(grad.Data()[1]), 1, 1e-6) {
		t.Fatalf("MSE grad = %v", grad.Data())
	}

	// BCE at logit 0 with target 0.5 is log(2); gradient is 0.
	logits := tensor.FromSlice([]float32{0}, 1)
	tg := tensor.FromSlice([]float32{0.5}, 1)
	bl, bg := BCEWithLogits(logits, tg)
	if !almost(bl, math.Log(2), 1e-6) {
		t.Fatalf("BCE = %v, want ln2", bl)
	}
	if !almost(float64(bg.Data()[0]), 0, 1e-6) {
		t.Fatalf("BCE grad = %v, want 0", bg.Data()[0])
	}
}

func TestSmoothL1Regions(t *testing.T) {
	pred := tensor.FromSlice([]float32{0.5, 3}, 2)
	target := tensor.FromSlice([]float32{0, 0}, 2)
	loss, grad := SmoothL1(pred, target)
	// Element 0: quadratic 0.5*0.25 = 0.125; element 1: linear 3-0.5 = 2.5.
	if !almost(loss, (0.125+2.5)/2, 1e-6) {
		t.Fatalf("SmoothL1 = %v", loss)
	}
	if !almost(float64(grad.Data()[0]), 0.25, 1e-6) {
		t.Fatalf("quad grad = %v", grad.Data()[0])
	}
	if !almost(float64(grad.Data()[1]), 0.5, 1e-6) {
		t.Fatalf("linear grad = %v", grad.Data()[1])
	}
}

func TestWeightedLossesMask(t *testing.T) {
	pred := tensor.FromSlice([]float32{5, 5}, 2)
	target := tensor.FromSlice([]float32{0, 0}, 2)
	w := tensor.FromSlice([]float32{0, 1}, 2)
	_, grad := WeightedMSE(pred, target, w)
	if grad.Data()[0] != 0 {
		t.Fatal("masked element should have zero gradient")
	}
	if grad.Data()[1] == 0 {
		t.Fatal("unmasked element should have gradient")
	}
	_, bg := WeightedBCEWithLogits(pred, target, w)
	if bg.Data()[0] != 0 || bg.Data()[1] == 0 {
		t.Fatal("weighted BCE mask not applied")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(10)
		logits := make([]float32, n)
		r.FillNormal(logits, 0, 5)
		p := Softmax(logits)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// SGD on a quadratic converges to the minimum.
func TestSGDConverges(t *testing.T) {
	rng := xrand.New(7)
	net := NewSequential(NewLinear(rng, 1, 1))
	opt := NewSGD(0.1, 0.9)
	x := tensor.FromSlice([]float32{1}, 1)
	target := tensor.FromSlice([]float32{3}, 1)
	var loss float64
	for i := 0; i < 200; i++ {
		out := net.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = MSE(out, target)
		net.ZeroGrad()
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if loss > 1e-6 {
		t.Fatalf("SGD failed to converge, loss=%v", loss)
	}
}

// Adam fits a tiny regression problem faster than raw loss start.
func TestAdamConverges(t *testing.T) {
	rng := xrand.New(8)
	net := NewSequential(NewLinear(rng, 2, 4), NewTanh(), NewLinear(rng, 4, 1))
	opt := NewAdam(0.02)
	inputs := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float32{0, 1, 1, 0} // XOR
	var total float64
	for epoch := 0; epoch < 800; epoch++ {
		total = 0
		net.ZeroGrad()
		for i, in := range inputs {
			x := tensor.FromSlice(append([]float32(nil), in...), 2)
			out := net.Forward(x, true)
			l, g := MSE(out, tensor.FromSlice([]float32{targets[i]}, 1))
			total += l
			net.Backward(g)
		}
		opt.Step(net.Params())
	}
	if total/4 > 0.02 {
		t.Fatalf("Adam failed to fit XOR, loss=%v", total/4)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("p", tensor.FromSlice([]float32{0, 0}, 2))
	p.Grad.Data()[0] = 3
	p.Grad.Data()[1] = 4
	norm := ClipGradNorm([]*Param{p}, 1)
	if !almost(norm, 5, 1e-6) {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	var after float64
	for _, g := range p.Grad.Data() {
		after += float64(g) * float64(g)
	}
	if !almost(math.Sqrt(after), 1, 1e-5) {
		t.Fatalf("post-clip norm %v, want 1", math.Sqrt(after))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := xrand.New(9)
	net := buildTestNet(rng)
	clone := net.Clone()
	x := randInput(rng.Split(), 2, 8, 8)
	a := net.Forward(x, false).Clone()
	b := clone.Forward(x, false)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("clone produces different outputs")
		}
	}
	// Mutating clone params must not affect the original.
	clone.Params()[0].Value.Fill(0)
	c := net.Forward(x, false)
	for i := range a.Data() {
		if a.Data()[i] != c.Data()[i] {
			t.Fatal("clone shares parameter storage with original")
		}
	}
}

func TestCopyParamsFrom(t *testing.T) {
	rng := xrand.New(10)
	a := buildTestNet(rng)
	b := buildTestNet(rng.Split())
	x := randInput(rng.Split(), 2, 8, 8)
	b.CopyParamsFrom(a)
	oa := a.Forward(x, false)
	ob := b.Forward(x, false)
	for i := range oa.Data() {
		if oa.Data()[i] != ob.Data()[i] {
			t.Fatal("CopyParamsFrom did not equalise outputs")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	net := buildTestNet(rng)
	x := randInput(rng.Split(), 2, 8, 8)
	want := net.Forward(x, false).Clone()

	var buf bytes.Buffer
	if err := SaveParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	fresh := buildTestNet(xrand.New(999))
	if err := LoadParams(&buf, fresh.Params()); err != nil {
		t.Fatal(err)
	}
	got := fresh.Forward(x, false)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatal("loaded network differs from saved")
		}
	}
}

func TestLoadParamsRejectsMismatch(t *testing.T) {
	rng := xrand.New(12)
	net := NewSequential(NewLinear(rng, 2, 2))
	var buf bytes.Buffer
	if err := SaveParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewSequential(NewLinear(rng, 3, 3))
	if err := LoadParams(&buf, other.Params()); err == nil {
		t.Fatal("loading mismatched params should error")
	}
}

func TestGroupNormNormalises(t *testing.T) {
	gn := NewGroupNorm(1, 2)
	x := randInput(xrand.New(13), 2, 4, 4)
	out := gn.Forward(x, false)
	// With gamma=1, beta=0 the output should have ~zero mean, ~unit variance.
	if m := out.Mean(); math.Abs(m) > 1e-4 {
		t.Fatalf("GroupNorm mean %v, want ~0", m)
	}
	var varSum float64
	for _, v := range out.Data() {
		varSum += float64(v) * float64(v)
	}
	varSum /= float64(out.Len())
	if math.Abs(varSum-1) > 1e-2 {
		t.Fatalf("GroupNorm var %v, want ~1", varSum)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	mp := NewMaxPool2D(2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		0, 0, 1, 0,
		0, 9, 0, 1,
	}, 1, 4, 4)
	out := mp.Forward(x, false)
	want := []float32{4, 8, 9, 1}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("maxpool[%d] = %v, want %v", i, v, want[i])
		}
	}
	grad := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2)
	dx := mp.Backward(grad)
	// Gradient must land exactly on the argmax positions.
	if dx.At(0, 1, 1) != 1 || dx.At(0, 1, 3) != 1 || dx.At(0, 3, 1) != 1 {
		t.Fatalf("maxpool backward misrouted: %v", dx.Data())
	}
	if dx.Sum() != 4 {
		t.Fatalf("maxpool backward total %v, want 4", dx.Sum())
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
