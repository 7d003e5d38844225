package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the package's single source of parallelism: the work
// threshold every sharded op gates on, the persistent helper pool, and the
// dispatch that splits one op across the caller and the helpers. It serves
// the plain GEMM; the conv forward (IndirectConvInto), which first shards
// the padded copy of its input by (sample, channel), then the product by
// (sample, output row), each unit reading its taps in place; the conv
// input gradient (MatMulCol2ImInto), whose units multiply and fold back
// whole input channels; and the conv parameter gradients
// (ConvParamGradsInto), one unit per output channel.
//
// A dispatch is one job. The job cuts its units into a fixed partition of
// chunks (chunksPerWorker per worker), and the caller and the helpers claim
// chunks through one atomic counter until none is left. The caller then
// waits only for the chunks already in flight: a helper that has not
// started by then finds nothing to claim, so the caller never waits for a
// wake-up. A reference count recycles the job once the caller and every
// helper it signalled are done with it, so a helper that wakes late cannot
// touch a job already reused by a later dispatch.
//
// A helper parked on the channel costs an OS wake-up (tens of µs) to
// start, which is more than a UNet layer's whole share of work when serial
// work (activations, upsampling, concatenation) sits between two
// dispatches. So after its job one helper stays warm: it polls a hand-off
// slot for up to helperSpin, yielding between polls, and only then parks.
// A dispatch puts its job into the slot when a helper is polling it, and
// sends on the channel otherwise. (Polling the channel itself does not
// help: Go hands a sent value to a receiver already parked on it, and
// that receiver still needs the OS wake-up.)
//
// When other goroutines already keep the cores busy — the grid runner's
// eval workers each run their own model — helpers would only compete with
// them for the same cores. So a dispatch that finds another one in
// progress steps aside and runs serially on its caller, and for
// overlapWindow after such an overlap every dispatch runs serially and no
// helper polls. A serial dispatch still counts as in progress while it
// runs, so callers that keep overlapping keep the window open.
//
// Parallelism here is strictly a dispatch concern, never a numeric one:
// every unit writes its own outputs (rows, column bands, channel planes,
// weight rows), and every output element is still one ascending-k
// accumulation with per-step float32 rounding, so results are
// bit-identical at any GOMAXPROCS, any chunk count and whichever
// goroutine runs a chunk. Tests sweep GOMAXPROCS ∈ {1,2,4,16} over the
// chunk boundaries to pin this.

// parallelMinWork is the m·k·n product below which the k-major GEMM stays
// serial: small and gemv-shaped products (the single-frame dense heads)
// never pay dispatch overhead, while the conv products (thousands of
// output positions) shard across cores. Changing this value changes
// dispatch only, never bits.
const parallelMinWork = 1 << 17

// chunksPerWorker is how many chunks a dispatch cuts its units into per
// worker: enough that a helper starting late, or a core shared with
// another process, leaves the caller only a small chunk to wait for.
const chunksPerWorker = 2

// helperSpin is how long a helper polls the hand-off slot after its job
// before it parks. It only needs to bridge the serial work between two
// dispatches of one model pass (tens of µs), with margin for the longer
// gaps of a diffusion step; past it the helper parks.
const helperSpin = time.Millisecond

// overlapWindow is how long after two dispatches overlapped every
// dispatch runs serially and no helper polls the hand-off slot: while
// other callers keep the cores busy, a helper would only take a core
// from them. A grid worker's dispatches are milliseconds apart, so the
// window outlasts the gap between two overlaps.
const overlapWindow = 10 * time.Millisecond

// shardWorkers is the dispatch gate of every sharded op: the number of
// workers for an m×k·k×n product — GOMAXPROCS past parallelMinWork, 1
// (serial on the caller) below it, for a single row, or at GOMAXPROCS=1.
// It depends only on the operand shape and the worker count, never on
// values.
func shardWorkers(m, k, n int) int {
	if w := runtime.GOMAXPROCS(0); w > 1 && m >= 2 && m*k*n >= parallelMinWork {
		return w
	}
	return 1
}

// taskOp selects what a poolTask's units are.
type taskOp uint8

const (
	opGEMM      taskOp = iota // output rows of c = a·bk (a is m×k, bk is k×n)
	opPad                     // (sample, input channel) planes of a conv's padded copy
	opConv                    // (sample, output row) bands of an indirect conv forward
	opCol2Im                  // (sample, input channel) planes of a conv input gradient
	opParamGrad               // output channels of a conv's weight and bias gradients
)

// poolTask describes the units of one sharded op.
//   - opGEMM: rows of c = a·bk (a is m×k, bk is k×n), run by the serial
//     driver on row-offset views of a and c.
//   - opPad: c is the padded copy the planes of the input bk are written
//     into, in the layout of taps (padUnits).
//   - opConv: c is the output, a the weights, bk the padded copy, b the
//     bias and n the output channel count; each unit is multiplied
//     through taps' offset table and biased (indirectUnits).
//   - opCol2Im: c is the tap-major scratch, a the transposed weights, bk
//     the output gradient, b the padded fold scratch in the layout of
//     taps, k the output channel count, n the output positions and dx
//     the input gradient each unit folds into (col2imUnits).
//   - opParamGrad: c is the weight gradient, b the bias gradient, a the
//     output gradient, dx the same gradient at the padded copy's row
//     stride (k floats per sample and channel), bk the padded copy and n
//     the sample count (paramGradUnits).
type poolTask struct {
	op       taskOp
	c, a, bk []float32
	k, n     int
	b, dx    []float32
	taps     *ConvTaps
}

// run computes units [lo, hi) on the calling goroutine.
func (t *poolTask) run(lo, hi int) {
	switch t.op {
	case opPad:
		t.taps.padUnits(t.c, t.bk, lo, hi)
	case opConv:
		indirectUnits(t.c, t.bk, t.a, t.b, t.taps, t.n, lo, hi)
	case opCol2Im:
		col2imUnits(t, lo, hi)
	case opParamGrad:
		paramGradUnits(t, lo, hi)
	default:
		matMulKMajorSerial(t.c[lo*t.n:], t.a[lo*t.k:], t.bk, hi-lo, t.k, t.n)
	}
}

// poolJob is one dispatch: its task, the partition of its units into
// chunks, and the counters the caller and the helpers share.
type poolJob struct {
	task          poolTask
	units, chunks int
	next          atomic.Int32 // the next chunk to claim
	done          atomic.Int32 // chunks finished
	refs          atomic.Int32 // the caller plus every helper signalled
}

// work claims chunks and runs them until none is left. Chunk i is units
// [i·units/chunks, (i+1)·units/chunks): the partition depends only on the
// unit and worker counts.
func (j *poolJob) work() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.chunks {
			return
		}
		j.task.run(i*j.units/j.chunks, (i+1)*j.units/j.chunks)
		j.done.Add(1)
	}
}

// release drops one reference; the last one recycles the job, without
// its operands, so the pool keeps no caller's buffers alive.
func (j *poolJob) release() {
	if j.refs.Add(-1) == 0 {
		j.task = poolTask{}
		jobPool.Put(j)
	}
}

// The persistent pool: started lazily on the first parallel dispatch and
// kept for the life of the process, so the thousands of sharded calls in
// a run reuse the same helpers instead of spawning goroutines per call.
// The helper count is fixed at NumCPU (floor 4, so a dispatch at a raised
// GOMAXPROCS still finds helpers); the Go scheduler caps actual
// parallelism at GOMAXPROCS, and the chunk partition follows GOMAXPROCS at
// call time, so the pool size is invisible in the results.
var (
	poolOnce    sync.Once
	poolCh      chan *poolJob
	poolHelpers int
	jobPool     = sync.Pool{New: func() any { return new(poolJob) }}

	// handoff is the warm helper's slot: nil when no helper polls it,
	// &polling while one does, and a job a dispatch has handed over until
	// that helper takes it.
	handoff atomic.Pointer[poolJob]
	polling poolJob

	// sharding counts the dispatches in progress, serial ones included;
	// quietUntil is the poolClock time until which dispatches run serially
	// and no helper polls (overlapWindow past the last overlap).
	sharding   atomic.Int32
	quietUntil atomic.Int64

	// helperHook, when set by a test, runs in a helper before it claims
	// chunks of a job it was signalled for.
	helperHook atomic.Pointer[func(*poolJob)]
)

// poolEpoch anchors poolClock.
var poolEpoch = time.Now() //advlint:wallclock-ok helper scheduling only; never feeds results

// poolClock is the monotonic time in ns since poolEpoch. It only decides
// whether a dispatch uses helpers and whether a helper keeps polling,
// never which units anyone computes or how they are partitioned.
func poolClock() int64 {
	return int64(time.Now().Sub(poolEpoch)) //advlint:wallclock-ok helper scheduling only; never feeds results
}

func startPool() {
	poolHelpers = max(runtime.NumCPU(), 4)
	poolCh = make(chan *poolJob, 4*poolHelpers)
	for i := 0; i < poolHelpers; i++ {
		go helper()
	}
}

// helper runs the jobs it is sent, and after each one polls the hand-off
// slot for the next before it parks on the channel again.
func helper() {
	for j := range poolCh {
		for j != nil {
			if h := helperHook.Load(); h != nil {
				(*h)(j)
			}
			j.work()
			j.release()
			j = awaitHandoff()
		}
	}
}

// awaitHandoff polls the hand-off slot for up to helperSpin and returns
// the job a dispatch put there, or nil when another helper already polls,
// the budget runs out, or dispatches have overlapped within overlapWindow.
func awaitHandoff() *poolJob {
	start := poolClock()
	if start < quietUntil.Load() || !handoff.CompareAndSwap(nil, &polling) {
		return nil
	}
	for {
		runtime.Gosched()
		if j := handoff.Load(); j != &polling {
			handoff.Store(nil)
			return j
		}
		if now := poolClock(); now-start > int64(helperSpin) || now < quietUntil.Load() {
			if handoff.CompareAndSwap(&polling, nil) {
				return nil
			}
			j := handoff.Load() // a dispatch handed over a job meanwhile
			handoff.Store(nil)
			return j
		}
	}
}

// matMulKMajorParallel row-shards dst = A·B_k across the pool (see
// shard); a thin entry for the plain GEMM, whose units are single rows.
func matMulKMajorParallel(c, a, bk []float32, m, k, n, workers int) {
	poolTask{op: opGEMM, c: c, a: a, bk: bk, k: k, n: n}.shard(m, workers)
}

// shard runs the task's units [0, units) — output rows of a GEMM,
// (sample, channel) planes of a padded copy, (sample, output row) column
// bands of a conv forward, (sample, input channel) planes of a conv input
// gradient, output channels of a conv's parameter gradients — on the
// caller and up to workers−1 helpers, as one job (see the top of this
// file). It runs serially on the caller for one worker or unit, when
// another dispatch is in progress, and within overlapWindow of such an
// overlap. Helpers never dispatch, so nested dispatch cannot deadlock. It
// allocates nothing once the pool is warm.
func (t poolTask) shard(units, workers int) {
	if workers = min(workers, units); workers <= 1 {
		t.run(0, units)
		return
	}
	now := poolClock()
	if sharding.Add(1) > 1 {
		quietUntil.Store(now + int64(overlapWindow))
	}
	if now < quietUntil.Load() {
		t.run(0, units)
		sharding.Add(-1)
		return
	}
	poolOnce.Do(startPool)
	j := jobPool.Get().(*poolJob)
	j.task, j.units, j.chunks = t, units, min(units, workers*chunksPerWorker)
	j.next.Store(0)
	j.done.Store(0)
	j.refs.Store(1)
	helpers := min(workers-1, poolHelpers)
	if handoff.Load() == &polling {
		j.refs.Add(1)
		if handoff.CompareAndSwap(&polling, j) {
			helpers--
		} else {
			j.refs.Add(-1)
		}
	}
	for ; helpers > 0; helpers-- {
		j.refs.Add(1)
		select {
		case poolCh <- j:
		default: // every helper is behind on stale jobs; the caller has the chunks
			j.refs.Add(-1)
		}
	}
	j.work()
	for j.done.Load() < int32(j.chunks) {
		runtime.Gosched()
	}
	sharding.Add(-1)
	j.release()
}
