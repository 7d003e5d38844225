package nn

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testenv"
	"repro/internal/xrand"
)

// batchTestNet builds a DistNet-shaped stack plus a batch of n 3×16×16
// frames and the same frames as individual CHW tensors.
func batchTestNet(n int) (*Sequential, *tensor.Tensor, []*tensor.Tensor) {
	rng := xrand.New(71)
	net := NewSequential(
		NewConv2D(rng, 3, 6, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewConv2D(rng, 6, 8, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 8*4*4, 10),
		NewLeakyReLU(0.1),
		NewLinear(rng, 10, 2),
	)
	batch := tensor.New(n, 3, 16, 16)
	rng.FillUniform(batch.Data(), 0, 1)
	singles := make([]*tensor.Tensor, n)
	sample := 3 * 16 * 16
	for s := 0; s < n; s++ {
		singles[s] = tensor.FromSlice(batch.Data()[s*sample:(s+1)*sample], 3, 16, 16)
	}
	return net, batch, singles
}

// TestBatchForwardBitIdentical is the core batch-first invariant: running N
// frames through one batched forward must produce, frame for frame, the
// same bits as N single-sample forwards — at any GOMAXPROCS, since kernel
// selection is shape-gated, never worker-count-gated.
func TestBatchForwardBitIdentical(t *testing.T) {
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 3, 8} {
			net, batch, singles := batchTestNet(n)
			// Single-sample reference on a clone so caches never mix.
			ref := net.Clone()
			want := make([][]float32, n)
			for s, x := range singles {
				out := ref.Forward(x, false)
				want[s] = append([]float32(nil), out.Data()...)
			}
			got := net.Forward(batch, false)
			if got.Dim(0) != n {
				t.Fatalf("procs=%d n=%d: batched output shape %v", procs, n, got.Shape())
			}
			per := got.Len() / n
			for s := 0; s < n; s++ {
				row := got.Data()[s*per : (s+1)*per]
				for i, v := range row {
					if v != want[s][i] {
						t.Fatalf("procs=%d n=%d: batched forward diverges at sample %d elem %d: %v vs %v",
							procs, n, s, i, v, want[s][i])
					}
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestBatchForwardParallelGEMMBitIdentical is the batch invariant at a
// shape whose conv patch product crosses the GEMM row-shard threshold
// (batch 8 of 3×32×32 frames: the first conv lowers to a 2048×27 · 27×6
// product, past tensor's parallelMinWork), so the batched forward runs on
// the multi-core path while the single-sample references stay serial.
// Frame-for-frame bit identity across GOMAXPROCS ∈ {1,4,16} pins the
// row shards to the serial numerics — the per-model workspace buffers are
// only ever touched by disjoint row ranges.
func TestBatchForwardParallelGEMMBitIdentical(t *testing.T) {
	rng := xrand.New(72)
	const n, c, hw = 8, 3, 32
	net := NewSequential(
		NewConv2D(rng, c, 6, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewConv2D(rng, 6, 8, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 8*8*8, 4),
	)
	batch := tensor.New(n, c, hw, hw)
	rng.FillUniform(batch.Data(), 0, 1)
	sample := c * hw * hw

	// Serial single-sample reference on a clone at GOMAXPROCS=1.
	old := runtime.GOMAXPROCS(1)
	ref := net.Clone()
	want := make([][]float32, n)
	for s := 0; s < n; s++ {
		x := tensor.FromSlice(batch.Data()[s*sample:(s+1)*sample], c, hw, hw)
		out := ref.Forward(x, false)
		want[s] = append([]float32(nil), out.Data()...)
	}
	runtime.GOMAXPROCS(old)

	for _, procs := range []int{1, 4, 16} {
		old := runtime.GOMAXPROCS(procs)
		got := net.Forward(batch, false)
		per := got.Len() / n
		for s := 0; s < n; s++ {
			row := got.Data()[s*per : (s+1)*per]
			for i, v := range row {
				if v != want[s][i] {
					t.Fatalf("procs=%d: parallel-GEMM batched forward diverges at sample %d elem %d: %v vs %v",
						procs, s, i, v, want[s][i])
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestBatchThenSingleForward interleaves batched and single calls on one
// model instance: the workspace must resize transparently and the numbers
// must not drift.
func TestBatchThenSingleForward(t *testing.T) {
	net, batch, singles := batchTestNet(4)
	want := net.Clone().Forward(singles[2], false).Clone()

	net.Forward(batch, false)
	got1 := net.Forward(singles[2], false).Clone()
	net.Forward(batch, false)
	got2 := net.Forward(singles[2], false)
	for i := range want.Data() {
		if got1.Data()[i] != want.Data()[i] || got2.Data()[i] != want.Data()[i] {
			t.Fatalf("single forward drifts after batched calls at %d", i)
		}
	}
}

// TestBatchBackwardInputGradBitIdentical checks the batched backward's
// per-sample input gradients against the single path bit for bit (the
// scatter kernels accumulate overlapping windows in the same order).
func TestBatchBackwardInputGradBitIdentical(t *testing.T) {
	const n = 3
	net, batch, singles := batchTestNet(n)
	ref := net.Clone()

	seed := tensor.New(2)
	seed.Data()[0], seed.Data()[1] = 1, -0.5
	want := make([][]float32, n)
	for s, x := range singles {
		ref.Forward(x, false)
		ref.ZeroGrad()
		g := ref.Backward(seed)
		want[s] = append([]float32(nil), g.Data()...)
	}

	net.Forward(batch, false)
	net.ZeroGrad()
	seedB := tensor.New(n, 2)
	for s := 0; s < n; s++ {
		seedB.Data()[s*2], seedB.Data()[s*2+1] = 1, -0.5
	}
	gB := net.Backward(seedB)
	if gB.Dim(0) != n {
		t.Fatalf("batched input grad shape %v", gB.Shape())
	}
	per := gB.Len() / n
	for s := 0; s < n; s++ {
		row := gB.Data()[s*per : (s+1)*per]
		for i, v := range row {
			if v != want[s][i] {
				t.Fatalf("batched input grad diverges at sample %d elem %d: %v vs %v", s, i, v, want[s][i])
			}
		}
	}
}

// TestBatchBackwardParamGradClose checks the batched parameter gradients
// against summed single-sample gradients to float tolerance (the batch
// accumulates in one pass, so only the summation order differs).
func TestBatchBackwardParamGradClose(t *testing.T) {
	const n = 4
	net, batch, singles := batchTestNet(n)
	ref := net.Clone()

	seed := tensor.New(2)
	seed.Data()[0], seed.Data()[1] = 0.7, -1.1
	for _, x := range singles {
		ref.Forward(x, false)
		ref.Backward(seed) // grads accumulate across samples
	}

	net.Forward(batch, false)
	seedB := tensor.New(n, 2)
	for s := 0; s < n; s++ {
		seedB.Data()[s*2], seedB.Data()[s*2+1] = 0.7, -1.1
	}
	net.Backward(seedB)

	wantP := ref.Params()
	gotP := net.Params()
	for pi := range wantP {
		wd := wantP[pi].Grad.Data()
		gd := gotP[pi].Grad.Data()
		for i := range wd {
			d := float64(wd[i] - gd[i])
			if d > 1e-3 || d < -1e-3 {
				t.Fatalf("param %s grad diverges at %d: %v vs %v", wantP[pi].Name, i, gd[i], wd[i])
			}
		}
	}
}

// TestBatchLayersBitIdentical exercises the batched path of the layer the
// perception models don't chain (Upsample2x) against its per-sample
// outputs.
func TestBatchLayersBitIdentical(t *testing.T) {
	rng := xrand.New(72)
	const n, c, h, w = 3, 4, 8, 8
	batch := tensor.New(n, c, h, w)
	rng.FillUniform(batch.Data(), -1, 1)
	sample := c * h * w

	lb, ls := NewUpsample2x(), NewUpsample2x()
	got := lb.Forward(batch, false)
	if got.Dim(0) != n {
		t.Fatalf("batched output shape %v", got.Shape())
	}
	per := got.Len() / n
	for s := 0; s < n; s++ {
		x := tensor.FromSlice(batch.Data()[s*sample:(s+1)*sample], c, h, w)
		want := ls.Forward(x, false)
		row := got.Data()[s*per : (s+1)*per]
		for i, v := range row {
			if v != want.Data()[i] {
				t.Fatalf("batch diverges at sample %d elem %d", s, i)
			}
		}
	}
}

// TestBatchForwardSteadyStateAllocs extends the PR 2 allocation budgets to
// the batched path: once the workspace is sized for the batch, batched
// inference must not touch the allocator.
func TestBatchForwardSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	net, batch, _ := batchTestNet(8)
	net.Forward(batch, false) // size the workspace
	if avg := testing.AllocsPerRun(50, func() { net.Forward(batch, false) }); avg >= 1 {
		t.Fatalf("batched Sequential.Forward allocates %.2f/op in steady state, want 0", avg)
	}
}
