package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testenv"
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

// buildTestNet returns a small conv net covering every parameterised layer.
func buildTestNet(rng *xrand.RNG) *Sequential {
	return NewSequential(
		NewConv2D(rng, 2, 4, 3, 1, 1),
		NewLeakyReLU(0.1),
		NewConv2D(rng, 4, 6, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 6*4*4, 8),
		NewLeakyReLU(0.1),
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
	if len(net.Params()) == 0 {
		t.Fatal("network reports no parameters")
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
	// A smooth variant (no LeakyReLU kinks) so central differences are
	// valid everywhere; the kinked layer is covered by exact-value tests.
	net := NewSequential(
		NewConv2D(rng, 2, 4, 3, 2, 1),
		&tanh{},
		NewConv2D(rng, 4, 6, 3, 2, 1),
		&tanh{},
		NewFlatten(),
		NewLinear(rng, 6*2*2, 8),
		&tanh{},
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

}

// Adam fits a tiny regression problem faster than raw loss start.
func TestAdamConverges(t *testing.T) {
	rng := xrand.New(8)
	net := NewSequential(NewLinear(rng, 2, 4), NewLeakyReLU(0.1), NewLinear(rng, 4, 1))
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
		opt.step(net.Params())
	}
	if total/4 > 0.02 {
		t.Fatalf("Adam failed to fit XOR, loss=%v", total/4)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("p", tensor.FromSlice([]float32{0, 0}, 2))
	p.Grad.Data()[0] = 3
	p.Grad.Data()[1] = 4
	norm := clipGradNorm([]*Param{p}, 1)
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

// TestEpochs checks the minibatches of each pass: the shuffle of that
// pass cut into consecutive sub-slices of at most size indices, the last
// short, covering every index once.
func TestEpochs(t *testing.T) {
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ref := append([]int(nil), idx...)
	refRNG := xrand.New(5)
	var sizes []int
	var seen []int
	Epochs(xrand.New(5), idx, 2, 4, func(epoch int, b []int) {
		sizes = append(sizes, len(b))
		seen = append(seen, b...)
	}, func(epoch int) {
		refRNG.Shuffle(len(ref), func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })
		if len(seen) != len(ref) {
			t.Fatalf("epoch %d covered %d indices, want %d", epoch, len(seen), len(ref))
		}
		for i, k := range seen {
			if k != ref[i] {
				t.Fatalf("epoch %d: batches %v, want the shuffle %v", epoch, seen, ref)
			}
		}
		seen = seen[:0]
	})
	if want := []int{4, 4, 2, 4, 4, 2}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	if testenv.RaceEnabled {
		return
	}
	// Handing out 64 one-index batches costs no more than one pass's shuffle.
	big := make([]int, 64)
	rng := xrand.New(6)
	noop := func(int, []int) {}
	if avg := testing.AllocsPerRun(20, func() { Epochs(rng, big, 1, 1, noop, nil) }); avg > 1 {
		t.Fatalf("Epochs allocates %.1f per pass, want at most 1", avg)
	}
}

// TestTrainStep checks the step against its parts: stale gradients are
// cleared, the summed gradient is averaged over the reported count and
// clipped before the Adam update.
func TestTrainStep(t *testing.T) {
	mk := func() *Param {
		p := newParam("p", tensor.FromSlice([]float32{1, -2}, 2))
		p.Grad.Data()[0] = 99 // stale
		return p
	}
	a, b := mk(), mk()
	NewAdam(0.1).TrainStep([]*Param{a}, func() int {
		a.Grad.Data()[0] += 30
		a.Grad.Data()[1] += 40
		return 2
	})
	b.Grad.Data()[0], b.Grad.Data()[1] = 15, 20
	clipGradNorm([]*Param{b}, maxGradNorm)
	NewAdam(0.1).step([]*Param{b})
	for i, v := range a.Value.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Value.Data()[i]) {
			t.Fatalf("value[%d] = %v, want %v", i, v, b.Value.Data()[i])
		}
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

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	net := buildTestNet(rng)
	x := randInput(rng.Split(), 2, 8, 8)
	want := net.Forward(x, false).Clone()

	data, err := EncodeParams(net.Params())
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildTestNet(xrand.New(999))
	if err := DecodeParams(data, fresh.Params()); err != nil {
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
	data, err := EncodeParams(net.Params())
	if err != nil {
		t.Fatal(err)
	}
	other := NewSequential(NewLinear(rng, 3, 3))
	if err := DecodeParams(data, other.Params()); err == nil {
		t.Fatal("loading mismatched params should error")
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// tanh is a smooth activation for the finite-difference checks, which a
// LeakyReLU kink would break.
type tanh struct{ y *tensor.Tensor }

func (l *tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l.y = x.Clone()
	for i, v := range l.y.Data() {
		l.y.Data()[i] = float32(math.Tanh(float64(v)))
	}
	return l.y
}

func (l *tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := grad.Clone()
	for i, y := range l.y.Data() {
		dx.Data()[i] *= 1 - y*y
	}
	return dx
}

func (l *tanh) Params() []*Param { return nil }
func (l *tanh) Clone() Layer     { return &tanh{} }
