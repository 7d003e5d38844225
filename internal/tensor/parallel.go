package tensor

import (
	"runtime"
	"sync"
)

// This file is the package's single source of parallelism: the work
// threshold the k-major GEMM gates on, the persistent worker pool it
// dispatches over, and the shard split itself. The split serves the plain
// GEMM, the conv forward (Im2RowMatMulInto), whose shards lower their own
// patch rows before multiplying them, and the conv input gradient
// (MatMulCol2ImInto), whose shards multiply and fold back whole input
// channels. Every parallel call amortises goroutine startup over the same
// long-lived workers.
//
// Parallelism here is strictly a dispatch concern, never a numeric one:
// workers own disjoint contiguous row ranges of the output and every
// output element is still one ascending-k accumulation with per-step
// float32 rounding, so results are bit-identical at any GOMAXPROCS and any
// shard count. Tests sweep GOMAXPROCS ∈ {1,2,4,16} over the split
// boundaries to pin this.

// parallelMinWork is the m·k·n product below which the k-major GEMM stays
// serial: small and gemv-shaped products (the single-frame dense heads)
// never pay dispatch overhead, while the batched conv patch products (m in
// the thousands) shard across cores. Changing this value changes dispatch
// only, never bits.
const parallelMinWork = 1 << 17

// shardWorkers is the dispatch gate of every k-major product, plain or
// fused with its conv lowering: the number of row shards for an m×k·k×n
// product — GOMAXPROCS past parallelMinWork, 1 (serial on the caller)
// below it, for a single row, or at GOMAXPROCS=1. It depends only on the
// operand shape and the worker count, never on values.
func shardWorkers(m, k, n int) int {
	if w := runtime.GOMAXPROCS(0); w > 1 && m >= 2 && m*k*n >= parallelMinWork {
		return w
	}
	return 1
}

// poolTask is one shard for the persistent pool: rows [lo, hi) of
// c = a·bk (a is m×k, bk is k×n). A conv forward shard also carries its
// input x and geometry g, and first lowers the output rows it owns into
// a's patch rows (im2rowRows) before multiplying them, so lowering runs on
// every core instead of serially ahead of the GEMM. A conv input-gradient
// shard carries the gradient dx it folds into instead, and [lo, hi) counts
// (sample, input channel) units (col2imUnits). A plain GEMM shard is the
// same task with x and dx nil. The struct travels by value through the
// channel so steady-state dispatch allocates nothing.
type poolTask struct {
	c, a, bk []float32
	lo, hi   int
	k, n     int
	x, dx    []float32
	g        ConvGeom
	wg       *sync.WaitGroup
}

// compute runs the shard on the calling goroutine: an input-gradient
// shard multiplies and folds its units; otherwise the lowering of its
// rows (conv forward shards only), then the serial GEMM driver on
// row-offset views of a and c.
func (t *poolTask) compute() {
	if t.dx != nil {
		col2imUnits(t.dx, t.c, t.a, t.bk, t.g, t.k, t.lo, t.hi)
		return
	}
	if t.x != nil {
		outW := t.g.OutW()
		im2rowRows(t.a, t.x, t.g, t.lo/outW, t.hi/outW)
	}
	matMulKMajorSerial(t.c[t.lo*t.n:], t.a[t.lo*t.k:], t.bk, t.hi-t.lo, t.k, t.n)
}

func (t poolTask) run() {
	t.compute()
	t.wg.Done()
}

// The persistent pool: started lazily on the first parallel dispatch and
// kept for the life of the process, so the ~thousands of GEMM calls in a
// run reuse the same workers instead of spawning goroutines per call.
// The worker count is fixed at NumCPU (floor 4 so shard queues still
// interleave on small machines); the Go scheduler caps actual parallelism
// at GOMAXPROCS. Shard *counts* follow GOMAXPROCS at call time, but since
// shards are numerically independent the pool size is invisible in the
// results.
var (
	poolOnce sync.Once
	poolCh   chan poolTask
)

// wgPool recycles the WaitGroups that tie a dispatch to its shards, so a
// parallel call allocates nothing in the steady state.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

func startPool() {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	poolCh = make(chan poolTask, 4*workers)
	for i := 0; i < workers; i++ {
		go func() {
			for t := range poolCh {
				t.run()
			}
		}()
	}
}

// matMulKMajorParallel row-shards dst = A·B_k across the pool (see
// shard); a thin entry for the plain GEMM, whose units are single rows.
func matMulKMajorParallel(c, a, bk []float32, m, k, n, workers int) {
	poolTask{c: c, a: a, bk: bk, k: k, n: n}.shard(m, 1, workers)
}

// shard splits the task's units [0, units) — unitRows output rows each:
// 1 for a GEMM, OutW for a conv forward, whose unit is one (sample, oy)
// output row, and 1 for a conv input gradient, whose unit is one (sample,
// input channel) — into at most workers contiguous ranges and runs each
// as a poolTask.
// Every lane still accumulates strictly ascending k with per-step
// rounding, so the split is invisible in the bits. The caller runs the
// last shard inline (it would otherwise idle in Wait), and pool workers
// never re-submit work, so nested dispatch cannot deadlock. It allocates
// nothing once the pool is warm.
func (t poolTask) shard(units, unitRows, workers int) {
	if workers = min(workers, units); workers <= 1 {
		t.lo, t.hi = 0, units*unitRows
		t.compute()
		return
	}
	per := (units + workers - 1) / workers
	poolOnce.Do(startPool)
	t.wg = wgPool.Get().(*sync.WaitGroup)
	lo := 0
	for ; lo+per < units; lo += per {
		t.wg.Add(1)
		s := t
		s.lo, s.hi = lo*unitRows, (lo+per)*unitRows
		poolCh <- s
	}
	t.lo, t.hi = lo*unitRows, units*unitRows
	t.compute()
	t.wg.Wait()
	wgPool.Put(t.wg)
}
