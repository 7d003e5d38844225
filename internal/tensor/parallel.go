package tensor

import (
	"runtime"
	"sync"
)

// This file is the package's single source of parallelism: the work
// threshold the k-major GEMM gates on, the persistent worker pool it
// dispatches over, and the row-shard split itself. Every parallel call
// amortises goroutine startup over the same long-lived workers.
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

// poolTask is one row shard of the k-major GEMM for the persistent pool.
// The struct travels by value through the channel so steady-state
// dispatch allocates nothing.
type poolTask struct {
	c, a, bk []float32
	lo, hi   int
	k, n     int
	wg       *sync.WaitGroup
}

func (t poolTask) run() {
	matMulKMajorRows(t.c, t.a, t.bk, t.lo, t.hi, t.k, t.n)
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

// matMulKMajorParallel row-shards dst = A·B_k across the pool: workers
// contiguous row ranges, each computed by the same serial lane-kernel
// driver restricted to its rows. Every lane still accumulates strictly
// ascending k with per-step rounding, so the split is invisible in the
// bits. The caller runs the last shard inline (it would otherwise idle in
// Wait), and pool workers never re-submit work, so nested dispatch cannot
// deadlock. It allocates nothing once the pool is warm.
func matMulKMajorParallel(c, a, bk []float32, m, k, n, workers int) {
	if workers > m {
		workers = m
	}
	per := (m + workers - 1) / workers
	if workers <= 1 || per >= m {
		matMulKMajorSerial(c, a, bk, m, k, n)
		return
	}
	poolOnce.Do(startPool)
	wg := wgPool.Get().(*sync.WaitGroup)
	lo := 0
	for ; lo+per < m; lo += per {
		wg.Add(1)
		poolCh <- poolTask{c: c, a: a, bk: bk, lo: lo, hi: lo + per, k: k, n: n, wg: wg}
	}
	matMulKMajorRows(c, a, bk, lo, m, k, n)
	wg.Wait()
	wgPool.Put(wg)
}

// matMulKMajorRows computes rows [lo, hi) of the product: the same serial
// driver on row-offset views of A and C.
func matMulKMajorRows(c, a, bk []float32, lo, hi, k, n int) {
	matMulKMajorSerial(c[lo*n:], a[lo*k:], bk, hi-lo, k, n)
}
