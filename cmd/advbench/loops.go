package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/box"
	"repro/internal/exp"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// A round is a fixed unit of work with its own seed; a run repeats
// rounds until its time is up. Round seeds cycle through seedCycle
// values, so a long run repeats inputs and must repeat outputs.
const (
	loopSeedCycle = 8
	gridSeedCycle = 16

	// minSamples is the fewest latency samples a run collects: the p95
	// needs minBeyond samples above it.
	minSamples = 200
)

// roundSeed derives the base seed of one round from the run seed.
func roundSeed(seed int64, round, cycle int) int64 {
	v := seed*1_000_003 + int64(round%cycle)*7_919 + 1
	if v == 0 {
		v = 1 // zero would select the preset's default seed
	}
	return v
}

func matrixSpec(scenarios, attacks, defenses []string, duration float64, baseSeed int64) exp.Spec {
	return exp.Spec{Kind: exp.KindMatrix, Matrix: &exp.MatrixSpec{
		Scenarios: scenarios, Attacks: attacks, Defenses: defenses,
		Duration: duration, DT: 0.05, BaseSeed: baseSeed,
	}}
}

// loopPlan returns the specs of one loop round. Their cells run one after
// another through pipeline.Run, the 20 Hz closed loop of §VI.
type loopPlan func(seed int64, round int, scale float64) []exp.Spec

// loopClassical is the cheap-defense loop: render, fog filter, FGSM or
// CAP gradients, the classical filters and the DistNet forward share
// every frame. Nine attack-defense pairs run equally often; an odd count
// puts the median frame inside one pair's frames rather than in the gap
// between two pairs, where it would jump with host noise. Bit Depth costs
// next to nothing on top of None and runs in loop-heavy instead.
func loopClassical(seed int64, round int, scale float64) []exp.Spec {
	return []exp.Spec{matrixSpec(
		[]string{"gentle-brake", "fog-brake"},
		[]string{"None", "FGSM", "CAP-Attack"},
		[]string{"None", "Median Blurring", "Randomization"},
		3.5*scale, roundSeed(seed, round, loopSeedCycle))}
}

// loopHeavy is the GEMM-bound loop: Auto-PGD frames (six forward and
// backward passes) and DiffPIR frames (a UNet pass per reverse step), one
// DiffPIR frame in five, so the median falls inside Auto-PGD frames and
// the p95 inside DiffPIR frames.
func loopHeavy(seed int64, round int, scale float64) []exp.Spec {
	s := roundSeed(seed, round, loopSeedCycle)
	return []exp.Spec{
		matrixSpec([]string{"gentle-brake", "fog-brake"}, []string{"Auto-PGD"},
			[]string{"None", "Bit Depth"}, 1.0*scale, s),
		matrixSpec([]string{"fog-brake"}, []string{"None", "CAP-Attack"},
			[]string{"DiffPIR"}, 0.5*scale, s+1),
	}
}

// loopRound is what one round measured.
type loopRound struct {
	frames    int
	wall      time.Duration
	intervals []float64            // frame latencies, ms
	byConfig  map[string][]float64 // frame latencies per attack-defense pair
	cellMS    []float64
	cells     []cell
}

// runLoopRound runs a round's cells in order. Frame latency is the time
// between successive calls to a pass-through wrapper around the runtime
// attacker (one clock read per frame); the wrapper returns the frame
// unchanged for the clean column, so results are those of pipeline.Run.
func (b *bench) runLoopRound(specs []exp.Spec) (loopRound, error) {
	out := loopRound{byConfig: map[string][]float64{}}
	reg := b.env.Reg.Clone()
	t0 := time.Now()
	for _, s := range specs {
		cells, err := specCells(s)
		if err != nil {
			return out, err
		}
		for _, c := range cells {
			cfg, err := b.config(reg, c)
			if err != nil {
				return out, err
			}
			key := c.id.Attack + "-" + c.id.Defense
			inner := cfg.Attacker
			var last time.Time
			cfg.Attacker = pipeline.AttackerFunc(func(img *imaging.Image, lb box.Box) *imaging.Image {
				now := time.Now()
				if !last.IsZero() {
					ms := now.Sub(last).Seconds() * 1e3
					out.intervals = append(out.intervals, ms)
					out.byConfig[key] = append(out.byConfig[key], ms)
				}
				last = now
				if inner == nil {
					return img
				}
				return inner.Apply(img, lb)
			})
			c0 := time.Now()
			res := pipeline.Run(cfg)
			out.cellMS = append(out.cellMS, time.Since(c0).Seconds()*1e3)
			out.frames += len(res.Times)
			c.want = &res
			out.cells = append(out.cells, c)
		}
	}
	out.wall = time.Since(t0)
	return out, nil
}

// digest hashes the round's closed-loop results in cell order.
func (lr loopRound) digest() string {
	results := make([]sim.Result, len(lr.cells))
	for i, c := range lr.cells {
		results[i] = *c.want
	}
	return digestResults(results)
}

// loopRounds repeats rounds until the deadline, and at least until
// opts.minRounds rounds and minSamples frame latencies. Each round's results
// are checked against their digest.
func (b *bench) loopRounds(ctx context.Context, plan loopPlan, deadline time.Time, out *result) ([]loopRound, error) {
	var rounds []loopRound
	samples := 0
	for r := 0; r < b.opts.minRounds || samples < minSamples || time.Now().Before(deadline); r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lr, err := b.runLoopRound(plan(b.opts.seed, r, b.opts.scale))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, lr)
		samples += len(lr.intervals)
		out.attempted += lr.frames
		if !b.check.check(fmt.Sprintf("round/%d", r%loopSeedCycle), lr.digest()) {
			out.failed += lr.frames
			b.log("FAIL %s round %d: results differ from their digest", b.opts.workload, r)
		}
	}
	return rounds, nil
}

func measureLoop(plan loopPlan) func(context.Context, *bench, time.Duration, *result) error {
	return func(ctx context.Context, b *bench, d time.Duration, out *result) error {
		rounds, err := b.loopRounds(ctx, plan, time.Now().Add(d), out)
		if err != nil {
			return err
		}
		var rates, lat []float64
		byConfig := map[string][]float64{}
		for _, r := range rounds {
			rates = append(rates, float64(r.frames)/r.wall.Seconds())
			lat = append(lat, r.intervals...)
			for k, v := range r.byConfig {
				byConfig[k] = append(byConfig[k], v...)
			}
		}
		out.metrics["ops_per_s"] = median(rates)
		if err := latencyMetrics(lat, out); err != nil {
			return err
		}
		b.log("%d rounds, %d frames, %d latency samples", len(rounds), out.attempted, len(lat))
		b.log("%s", sec6Table(byConfig))
		return nil
	}
}

func tracedLoop(plan loopPlan) func(context.Context, *bench, time.Duration, *result) ([]cell, error) {
	return func(ctx context.Context, b *bench, d time.Duration, out *result) ([]cell, error) {
		rounds, err := b.loopRounds(ctx, plan, time.Now().Add(d), out)
		if err != nil {
			return nil, err
		}
		// The loops call pipeline.Run directly: one worker, no Run call
		// around the cells, so no prelude or tail.
		var st evalStats
		var cells []cell
		var specs []exp.Spec
		for i, r := range rounds {
			st.cellMS = append(st.cellMS, r.cellMS...)
			st.workerMS += r.wall.Seconds() * 1e3
			cells = append(cells, r.cells...)
			specs = append(specs, plan(b.opts.seed, i, b.opts.scale)...)
		}
		return cells, b.evalMetrics(st, specs, out)
	}
}

// latencyMetrics fills the end-to-end latency percentiles of one run.
func latencyMetrics(ms []float64, out *result) error {
	p50, err := percentile(ms, 0.50)
	if err != nil {
		return err
	}
	p95, err := percentile(ms, 0.95)
	if err != nil {
		return err
	}
	out.metrics["op_ms_p50"] = p50
	out.metrics["op_ms_p95"] = p95
	return nil
}

// evalStats is what the grid-runner hooks recorded over a phase.
type evalStats struct {
	cellMS    []float64 // each cell, from its start event to its done event
	preludeMS []float64 // each Run call, from the call to its first cell start
	tailMS    []float64 // each Run call, from its last cell done to its return
	workerMS  float64   // worker time available: workers × Run call time
}

// evalMetrics fills the grid-runner metrics: cell latency, the time a
// Run call spends before its first cell and after its last, cell count,
// how busy the workers were (cell time over worker time), and the cost
// of parsing and hashing the run's specs.
func (b *bench) evalMetrics(st evalStats, specs []exp.Spec, out *result) error {
	var busy float64
	for _, v := range st.cellMS {
		busy += v
	}
	m := out.metrics
	m["eval.cell_ms_p50"] = median(st.cellMS)
	m["eval.cell_ms_p95"] = b.tail(st.cellMS, 0.95, "eval.cell_ms_p95")
	m["eval.prelude_ms"] = median(st.preludeMS)
	m["eval.tail_ms"] = median(st.tailMS)
	m["eval.cells"] = float64(len(st.cellMS))
	m["eval.worker_busy_ratio"] = 0
	if st.workerMS > 0 {
		m["eval.worker_busy_ratio"] = busy / st.workerMS
	}
	us, err := specHashMicros(specs)
	if err != nil {
		return err
	}
	m["exp.spec_hash_us"] = us
	return nil
}

// tail is a per-layer percentile, or 0 with a note on standard error when
// too few samples lie beyond it.
func (b *bench) tail(v []float64, q float64, name string) float64 {
	p, err := percentile(v, q)
	if err != nil {
		b.log("%s not measured: %v", name, err)
		return 0
	}
	return p
}

// specHashMicros is the median time to parse a spec's JSON and compute
// its content hash, the work every served request does before the cache.
func specHashMicros(specs []exp.Spec) (float64, error) {
	const reps = 50
	var per []float64
	for _, s := range specs {
		data, err := s.JSON()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			p, err := exp.ParseSpec(data)
			if err != nil {
				return 0, err
			}
			if _, err := exp.SpecHash(p); err != nil {
				return 0, err
			}
		}
		per = append(per, time.Since(t0).Seconds()*1e6/reps)
	}
	return median(per), nil
}

// sec6Table renders the per-configuration frame latency, the paper's §VI
// question of which defenses fit a 50 ms control period.
func sec6Table(byConfig map[string][]float64) string {
	keys := make([]string, 0, len(byConfig))
	for k := range byConfig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("| attack-defense | frames | frame ms p50 |\n|---|---:|---:|\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "| %s | %d | %.3f |\n", k, len(byConfig[k]), median(byConfig[k]))
	}
	return strings.TrimRight(sb.String(), "\n")
}

// cellTimer is an exp.Observer timing one Run call: every cell from its
// start event to its done event (cells of one run run on several workers
// at once), and the call's first start and last done. Create it just
// before the call.
type cellTimer struct {
	tr     *tracer // optional: one span per cell under parent
	parent int
	t0     time.Time

	mu          sync.Mutex
	started     map[int]time.Time
	spans       map[int]int
	ms          []float64
	first, last time.Time
}

func newCellTimer(tr *tracer, parent int) *cellTimer {
	return &cellTimer{tr: tr, parent: parent, t0: time.Now(), started: map[int]time.Time{}, spans: map[int]int{}}
}

// Observe implements exp.Observer.
func (c *cellTimer) Observe(ev exp.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case exp.EventCellStart:
		c.started[ev.Cell.Index] = now
		if c.first.IsZero() {
			c.first = now
		}
		if c.tr != nil {
			c.spans[ev.Cell.Index] = c.tr.begin("eval.cell", int64(ev.Cell.Index), c.parent)
		}
	case exp.EventCellDone:
		if t0, ok := c.started[ev.Cell.Index]; ok {
			c.ms = append(c.ms, now.Sub(t0).Seconds()*1e3)
		}
		c.last = now
		if s, ok := c.spans[ev.Cell.Index]; ok {
			c.tr.end(s)
		}
	}
}

func (c *cellTimer) latencies() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.ms...)
}

// addTo folds the timer into st once its Run call has returned, with
// workers eval workers available for the whole call.
func (c *cellTimer) addTo(st *evalStats, workers int) {
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st.cellMS = append(st.cellMS, c.ms...)
	if !c.first.IsZero() {
		st.preludeMS = append(st.preludeMS, c.first.Sub(c.t0).Seconds()*1e3)
		st.tailMS = append(st.tailMS, end.Sub(c.last).Seconds()*1e3)
	}
	st.workerMS += float64(workers) * end.Sub(c.t0).Seconds() * 1e3
}

// referenceLoop digests every round seed of a loop workload.
func referenceLoop(plan loopPlan) func(context.Context, *bench) (digests, error) {
	return func(ctx context.Context, b *bench) (digests, error) {
		d := digests{}
		for r := 0; r < loopSeedCycle; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lr, err := b.runLoopRound(plan(b.opts.seed, r, b.opts.scale))
			if err != nil {
				return nil, err
			}
			d[fmt.Sprintf("round/%d", r)] = lr.digest()
		}
		return d, nil
	}
}
