package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testenv"
	"repro/internal/xrand"
)

// sameBits fails the test at the first element whose float32 bit pattern
// differs — the parallel contract is byte equality, not approximate
// equality.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: bits diverge at %d: %v (%#x) vs %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// parallelBoundaryShapes are the row-split edge cases: m one row below and
// above the work threshold (k·n = 648, so the gate flips between m=202
// and m=203), m far past it and not divisible by any swept worker count,
// the minimal two-row parallel shape, and the m=1 gemv that must stay
// serial no matter how large k·n gets.
var parallelBoundaryShapes = [][3]int{
	{202, 27, 24},  // just below parallelMinWork: serial
	{203, 27, 24},  // just above: parallel at GOMAXPROCS > 1
	{1000, 27, 24}, // not divisible by 2, 4 or 16 workers
	{2048, 108, 24},
	{2, 2048, 64}, // minimal parallel m
	{1, 4096, 64}, // gemv: m = 1 stays serial by construction
}

// TestMatMulKMajorParallelBitIdentical sweeps GOMAXPROCS ∈ {1,2,4,16}
// over the row-split boundary shapes and asserts the dispatched product
// is byte-identical to the serial lane-kernel driver: parallelism is
// dispatch only, never numerics.
func TestMatMulKMajorParallelBitIdentical(t *testing.T) {
	rng := xrand.New(83)
	for _, s := range parallelBoundaryShapes {
		m, k, n := s[0], s[1], s[2]
		a := New(m, k)
		rng.FillUniform(a.Data(), -2, 2)
		bk := New(k, n)
		rng.FillUniform(bk.Data(), -2, 2)

		want := New(m, n)
		matMulKMajorSerial(want.Data(), a.Data(), bk.Data(), m, k, n)

		for _, procs := range []int{1, 2, 4, 16} {
			old := runtime.GOMAXPROCS(procs)
			got := New(m, n)
			got.Fill(99) // stale garbage must be fully overwritten
			MatMulKMajorInto(got, a, bk)
			runtime.GOMAXPROCS(old)
			sameBits(t, "GOMAXPROCS="+itoa(procs)+" shape "+itoa(m)+"x"+itoa(k)+"x"+itoa(n),
				got.Data(), want.Data())
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestMatMulKMajorParallelExplicitWorkers drives the shard driver directly
// at worker counts the GOMAXPROCS gate would never pick — more workers
// than rows, row counts not divisible by the worker count, a single row —
// so the chunk arithmetic is pinned independently of the dispatch gate.
func TestMatMulKMajorParallelExplicitWorkers(t *testing.T) {
	rng := xrand.New(84)
	shapes := [][3]int{{1, 7, 9}, {2, 5, 17}, {7, 11, 13}, {33, 9, 20}, {64, 27, 24}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := New(m, k)
		rng.FillUniform(a.Data(), -2, 2)
		bk := New(k, n)
		rng.FillUniform(bk.Data(), -2, 2)

		want := New(m, n)
		matMulKMajorSerial(want.Data(), a.Data(), bk.Data(), m, k, n)

		for _, workers := range []int{1, 2, 3, 5, 16, m, m + 5} {
			got := New(m, n)
			got.Fill(99)
			matMulKMajorParallel(got.Data(), a.Data(), bk.Data(), m, k, n, workers)
			sameBits(t, "workers="+itoa(workers)+" m="+itoa(m), got.Data(), want.Data())
		}
	}
}

// TestMatMulKMajorConcurrentCallers hammers the persistent pool from many
// goroutines at once on a shape past the parallel threshold — the exact
// load profile of the matrix runner's per-worker models, whose conv
// products all funnel through MatMulKMajorInto. Under -race this
// certifies the pool tasks share no state beyond their disjoint output
// rows.
func TestMatMulKMajorConcurrentCallers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := xrand.New(85)
	const m, k, n = 512, 27, 24
	a := New(m, k)
	rng.FillUniform(a.Data(), -2, 2)
	bk := New(k, n)
	rng.FillUniform(bk.Data(), -2, 2)
	want := New(m, n)
	matMulKMajorSerial(want.Data(), a.Data(), bk.Data(), m, k, n)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := New(m, n)
			for rep := 0; rep < 4; rep++ {
				got.Fill(99)
				MatMulKMajorInto(got, a, bk)
				for i := range want.Data() {
					if math.Float32bits(got.Data()[i]) != math.Float32bits(want.Data()[i]) {
						t.Errorf("concurrent parallel GEMM diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMatMulKMajorParallelSteadyStateAllocs pins the parallel path to zero
// steady-state allocations once the pool is warm: jobs are recycled
// through the pool's job cache, so the batched conv products stay
// allocation-free even when sharded.
func TestMatMulKMajorParallelSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := xrand.New(86)
	const m, k, n = 512, 27, 24 // past parallelMinWork: the sharded path
	a := New(m, k)
	rng.FillUniform(a.Data(), -1, 1)
	bk := New(k, n)
	rng.FillUniform(bk.Data(), -1, 1)
	c := New(m, n)
	MatMulKMajorInto(c, a, bk) // warm the pool and its job cache
	if avg := testing.AllocsPerRun(100, func() { MatMulKMajorInto(c, a, bk) }); avg >= 1 {
		t.Fatalf("parallel MatMulKMajorInto allocates %.2f/op in steady state, want 0", avg)
	}
}

// shardCase is one sharded op: its task, its unit count, and the buffers
// it writes, which reset restores before every run (to garbage for the
// ops that overwrite, to a fixed start for the ones that accumulate).
type shardCase struct {
	name  string
	task  poolTask
	units int
	outs  [][]float32
}

func (c *shardCase) reset() {
	for _, o := range c.outs {
		for i := range o {
			o[i] = float32(i%7) - 3
		}
	}
}

// snapshot returns a copy of every output, concatenated.
func (c *shardCase) snapshot() []float32 {
	var all []float32
	for _, o := range c.outs {
		all = append(all, o...)
	}
	return all
}

// shardCases builds every op the pool dispatches — GEMM rows, padded-copy
// planes, conv forward bands, col2im planes and parameter-gradient
// channels — at unit counts on both sides of the chunk counts the swept
// worker counts give (chunksPerWorker per worker).
func shardCases(rng *xrand.RNG) []*shardCase {
	var cases []*shardCase
	for _, m := range []int{2, 7, 8, 9, 16, 17, 63, 64, 65} {
		a, bk, c := New(m, 5), New(5, 9), New(m, 9)
		rng.FillUniform(a.Data(), -2, 2)
		rng.FillUniform(bk.Data(), -2, 2)
		cases = append(cases, &shardCase{name: "gemm m=" + itoa(m), units: m,
			task: poolTask{op: opGEMM, c: c.Data(), a: a.Data(), bk: bk.Data(), k: 5, n: 9},
			outs: [][]float32{c.Data()}})
	}
	for _, tc := range []struct {
		g     ConvGeom
		n, oc int
	}{
		{ConvGeom{InC: 3, InH: 7, InW: 6, K: 3, Stride: 1, Pad: 1}, 3, 7},
		{ConvGeom{InC: 4, InH: 9, InW: 5, K: 3, Stride: 2, Pad: 1}, 2, 9},
		{ConvGeom{InC: 17, InH: 5, InW: 8, K: 1, Stride: 1, Pad: 0}, 1, 33},
	} {
		g, n, oc := tc.g, tc.n, tc.oc
		taps := NewConvTaps(g)
		l, p, q := g.InC*g.K*g.K, g.OutH()*g.OutW(), taps.GridLen()
		x, w, bias, _, _ := fusedOperands(rng, n, g, oc)
		xp := New(n * taps.PaddedLen())
		taps.padUnits(xp.Data(), x.Data(), 0, n*g.InC)
		what := " n=" + itoa(n) + " InC=" + itoa(g.InC) + " OutC=" + itoa(oc)

		pad := New(n * taps.PaddedLen())
		cases = append(cases, &shardCase{name: "pad" + what, units: n * g.InC,
			task: poolTask{op: opPad, c: pad.Data(), bk: x.Data(), taps: taps},
			outs: [][]float32{pad.Data()}})

		out := New(n, oc, g.OutH(), g.OutW())
		cases = append(cases, &shardCase{name: "conv" + what, units: n * g.OutH(),
			task: poolTask{op: opConv, c: out.Data(), a: w.Data(), bk: xp.Data(), b: bias.Data(), n: oc, taps: taps},
			outs: [][]float32{out.Data()}})

		grad, wT := col2imOperands(rng, n, g, oc)
		cols, fold, dx := New(n*l, p), New(n*taps.PaddedLen()), New(n, g.InC, g.InH, g.InW)
		cases = append(cases, &shardCase{name: "col2im" + what, units: n * g.InC,
			task: poolTask{op: opCol2Im, c: cols.Data(), a: wT.Data(), bk: grad.Data(), b: fold.Data(), k: oc, n: p, dx: dx.Data(), taps: taps},
			outs: [][]float32{cols.Data(), fold.Data(), dx.Data()}})

		dw, db := New(oc, l), New(oc)
		var gq []float32
		if q != p {
			gq = New(n * oc * q).Data()
		}
		cases = append(cases, &shardCase{name: "paramgrad" + what, units: oc,
			task: poolTask{op: opParamGrad, c: dw.Data(), b: db.Data(), a: grad.Data(), dx: gq, bk: xp.Data(), k: q, n: n, taps: taps},
			outs: [][]float32{dw.Data(), db.Data(), gq}})
	}
	return cases
}

// TestPoolOpsMatchSerialAcrossChunks runs every op through the pool at
// GOMAXPROCS ∈ {1,2,4,16} and explicit worker counts whose chunk counts
// fall below, at and above the op's unit count, and compares the bits
// with one serial run of all units on the caller: the partition and
// which goroutine runs a chunk are dispatch only.
func TestPoolOpsMatchSerialAcrossChunks(t *testing.T) {
	for _, c := range shardCases(xrand.New(87)) {
		c.reset()
		c.task.run(0, c.units)
		want := c.snapshot()
		for _, procs := range []int{1, 2, 4, 16} {
			old := runtime.GOMAXPROCS(procs)
			for _, workers := range []int{2, 3, 4, 16} {
				c.reset()
				quietUntil.Store(0) // no serial fallback left over from an earlier overlap
				c.task.shard(c.units, workers)
				sameBits(t, c.name+" GOMAXPROCS="+itoa(procs)+" workers="+itoa(workers), c.snapshot(), want)
			}
			runtime.GOMAXPROCS(old)
		}
	}
}

// setHelperHook installs a helper hook for the test and removes it at
// the end.
func setHelperHook(t *testing.T, h func(*poolJob)) {
	helperHook.Store(&h)
	t.Cleanup(func() { helperHook.Store(nil) })
}

// gemmJobOf reports whether j is a GEMM job writing into c.
func gemmJobOf(j *poolJob, c []float32) bool {
	return j.task.op == opGEMM && len(j.task.c) > 0 && &j.task.c[0] == &c[0]
}

// TestPoolStepsAsideUnderOverlap holds the pool's in-progress count as an
// outer dispatch would: a dispatch must then run serially on its caller
// (no helper ever sees its job), open the overlap window, and still
// produce the serial bits. Inside the window no helper polls, and a
// dispatch that overlaps nothing runs serially too. Then real concurrent
// callers must reach the same path.
func TestPoolStepsAsideUnderOverlap(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := xrand.New(88)
	const m, k, n = 512, 27, 24
	a, bk := New(m, k), New(k, n)
	rng.FillUniform(a.Data(), -2, 2)
	rng.FillUniform(bk.Data(), -2, 2)
	want := New(m, n)
	matMulKMajorSerial(want.Data(), a.Data(), bk.Data(), m, k, n)
	matMulKMajorParallel(New(m, n).Data(), a.Data(), bk.Data(), m, k, n, 4) // start the pool
	got := New(m, n)

	var helped atomic.Int32
	setHelperHook(t, func(j *poolJob) {
		if gemmJobOf(j, got.Data()) {
			helped.Add(1)
		}
	})
	sharding.Add(1)
	quietUntil.Store(0)
	got.Fill(99)
	matMulKMajorParallel(got.Data(), a.Data(), bk.Data(), m, k, n, 4)
	sharding.Add(-1)
	sameBits(t, "stepped-aside GEMM", got.Data(), want.Data())
	if quietUntil.Load() <= poolClock() {
		t.Fatal("an overlapping dispatch did not open the no-polling window")
	}
	if j := awaitHandoff(); j != nil {
		t.Fatal("a helper polled the hand-off slot inside the overlap window")
	}
	got.Fill(99)
	matMulKMajorParallel(got.Data(), a.Data(), bk.Data(), m, k, n, 4) // alone, but inside the window
	sameBits(t, "GEMM inside the overlap window", got.Data(), want.Data())
	time.Sleep(10 * time.Millisecond) // let any wrongly signalled helper run its hook
	if helped.Load() != 0 {
		t.Fatalf("serial dispatches signalled %d helpers", helped.Load())
	}

	quietUntil.Store(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New(m, n)
			for rep := 0; rep < 200 && quietUntil.Load() == 0; rep++ {
				c.Fill(99)
				MatMulKMajorInto(c, a, bk)
				for i, v := range want.Data() {
					if math.Float32bits(c.Data()[i]) != math.Float32bits(v) {
						t.Errorf("concurrent GEMM diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if quietUntil.Load() == 0 {
		t.Fatal("4 concurrent callers never overlapped in a dispatch")
	}
	quietUntil.Store(0)
}

// TestPoolLateHelperChangesNothing holds back the helper signalled for a
// dispatch until its caller has run every chunk and returned, and until
// later dispatches have run. While it is held, its job cannot be recycled
// (the helper's reference pins it); when it finally runs, it finds no
// chunk to claim, writes nothing, and drops the last reference, after
// which the job is free for reuse.
func TestPoolLateHelperChangesNothing(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	rng := xrand.New(89)
	const m, k, n = 64, 9, 16
	a, bk := New(m, k), New(k, n)
	rng.FillUniform(a.Data(), -2, 2)
	rng.FillUniform(bk.Data(), -2, 2)
	want := New(m, n)
	matMulKMajorSerial(want.Data(), a.Data(), bk.Data(), m, k, n)
	first := New(m, n)
	matMulKMajorParallel(first.Data(), a.Data(), bk.Data(), m, k, n, 2) // start the pool

	quietUntil.Store(0)
	held, release := make(chan *poolJob, 1), make(chan struct{})
	var once sync.Once
	setHelperHook(t, func(j *poolJob) {
		if gemmJobOf(j, first.Data()) {
			once.Do(func() {
				held <- j
				<-release
			})
		}
	})
	first.Fill(99)
	matMulKMajorParallel(first.Data(), a.Data(), bk.Data(), m, k, n, 2)
	sameBits(t, "dispatch whose helper is held", first.Data(), want.Data())
	var j *poolJob
	select {
	case j = <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the signalled helper never took its job")
	}
	for rep := 0; rep < 20; rep++ {
		c := New(m, n)
		c.Fill(99)
		matMulKMajorParallel(c.Data(), a.Data(), bk.Data(), m, k, n, 2)
		sameBits(t, "dispatch while a helper is held", c.Data(), want.Data())
	}
	if r := j.refs.Load(); r != 1 {
		t.Fatalf("held job has %d references, want the held helper's 1", r)
	}
	if !gemmJobOf(j, first.Data()) {
		t.Fatal("held job was reused while a helper still held it")
	}
	first.Fill(42) // anything the late helper wrote would show here
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for j.refs.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the late helper never released its job")
		}
		runtime.Gosched()
	}
	for i, v := range first.Data() {
		if v != 42 {
			t.Fatalf("late helper wrote element %d: %v", i, v)
		}
	}
	c := New(m, n)
	matMulKMajorParallel(c.Data(), a.Data(), bk.Data(), m, k, n, 2)
	sameBits(t, "dispatch after the late helper", c.Data(), want.Data())
}

// TestPoolGoroutinesBounded runs 1 000 dispatches on a warm pool and
// checks that they start no goroutine: the helpers are persistent, and a
// warm one polls instead of being replaced.
func TestPoolGoroutinesBounded(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	const m, k, n = 32, 8, 16
	a, bk, c := New(m, k), New(k, n), New(m, n)
	fillSeq(a)
	fillSeq(bk)
	quietUntil.Store(0)
	matMulKMajorParallel(c.Data(), a.Data(), bk.Data(), m, k, n, 2)
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		matMulKMajorParallel(c.Data(), a.Data(), bk.Data(), m, k, n, 2)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("1000 dispatches grew the goroutines from %d to %d", before, after)
	}
}
