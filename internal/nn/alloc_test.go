package nn

import (
	"runtime"
	"testing"

	"repro/internal/testenv"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Steady-state allocation guards for the workspace model: after the first
// Forward/Backward sized the scratch buffers, inference and gradient loops
// must not touch the allocator. Thresholds are < 1 rather than == 0 so a
// rare GC clearing the matmul pack pool mid-measurement doesn't flake.

func TestConv2DForwardSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	rng := xrand.New(1)
	c := NewConv2D(rng, 3, 16, 3, 2, 1)
	x := tensor.New(3, 32, 32)
	c.Forward(x, false) // size the workspace
	if avg := testing.AllocsPerRun(100, func() { c.Forward(x, false) }); avg >= 1 {
		t.Fatalf("Conv2D.Forward allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestConv2DShardedForwardSteadyStateAllocs is the Forward guard above
// tensor's parallel work gate (the 3×32×32 shape above stays serial): the
// UNet dec1 conv, 26→10 at 64×64, row-shards its fused lowering and GEMM
// over the pool at GOMAXPROCS=2 and must still allocate nothing.
func TestConv2DShardedForwardSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	rng := xrand.New(1)
	c := NewConv2D(rng, 26, 10, 3, 1, 1)
	x := tensor.New(26, 64, 64)
	rng.FillUniform(x.Data(), -1, 1)
	c.Forward(x, false) // size the workspace, warm the pool
	if avg := testing.AllocsPerRun(20, func() { c.Forward(x, false) }); avg >= 1 {
		t.Fatalf("sharded Conv2D.Forward allocates %.2f/op in steady state, want 0", avg)
	}
}

func TestConv2DBackwardSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	rng := xrand.New(1)
	c := NewConv2D(rng, 3, 16, 3, 2, 1)
	x := tensor.New(3, 32, 32)
	out := c.Forward(x, false)
	grad := tensor.New(out.Shape()...)
	grad.Fill(0.5)
	c.Backward(grad)
	if avg := testing.AllocsPerRun(100, func() { c.Backward(grad) }); avg >= 1 {
		t.Fatalf("Conv2D.Backward allocates %.2f/op in steady state, want 0", avg)
	}
}

func TestSequentialForwardBackwardSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	rng := xrand.New(2)
	net := NewSequential(
		NewConv2D(rng, 3, 12, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 12*12*12, 8),
		NewLeakyReLU(0.1),
		NewLinear(rng, 8, 1),
	)
	x := tensor.New(3, 24, 24)
	x.Fill(0.3)
	seed := tensor.New(1)
	seed.Data()[0] = 1
	step := func() {
		net.Forward(x, false)
		net.ZeroGrad()
		net.Backward(seed)
	}
	step() // size the workspace
	if avg := testing.AllocsPerRun(50, step); avg >= 1 {
		t.Fatalf("Sequential forward+backward allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestWorkspaceReuseKeepsResults runs the same input through a network
// twice and through a fresh clone, checking buffer reuse never changes the
// numbers and that the retention rule (outputs valid until the next call)
// holds as documented.
func TestWorkspaceReuseKeepsResults(t *testing.T) {
	rng := xrand.New(3)
	net := NewSequential(
		NewConv2D(rng, 3, 8, 3, 1, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 8*10*10, 4),
		NewLeakyReLU(0.1),
	)
	x := tensor.New(3, 10, 10)
	for i := range x.Data() {
		x.Data()[i] = float32(i%17) * 0.05
	}
	first := net.Forward(x, false).Clone()
	second := net.Forward(x, false)
	for i := range first.Data() {
		if first.Data()[i] != second.Data()[i] {
			t.Fatalf("repeat forward diverged at %d", i)
		}
	}
	clone := net.Clone()
	third := clone.Forward(x, false)
	for i := range first.Data() {
		if first.Data()[i] != third.Data()[i] {
			t.Fatalf("clone forward diverged at %d", i)
		}
	}
	// The clone ran on its own workspace: the original's last output must
	// still be intact (second aliases it).
	for i := range first.Data() {
		if first.Data()[i] != second.Data()[i] {
			t.Fatalf("clone forward overwrote the original's output at %d", i)
		}
	}
}
