package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exp"
)

// gridSpec is one grid-quick round: 3 scenarios x 4 attacks x 4 classical
// defenses, 1 s cells. Short cells expose the per-cell cost of the grid
// runner (regressor clones, factories, formatting), and its two workers
// compete with the tensor row-shard pool for the two cores.
func gridSpec(seed int64, round int, scale float64) exp.Spec {
	return matrixSpec(
		[]string{"highway-cruise", "hard-brake", "rain-cruise"},
		[]string{"None", "FGSM", "CAP-Attack", "Auto-PGD"},
		[]string{"None", "Median Blurring", "Bit Depth", "Randomization"},
		1.0*scale, roundSeed(seed, round, gridSeedCycle))
}

// gridWorkers is the grid runner's worker count: one per core of the
// two-core load budget.
const gridWorkers = 2

type gridRound struct {
	spec   exp.Spec
	wall   time.Duration
	cellMS []float64
	cells  []cell
}

// gridRounds runs the grid spec through exp.Experiment.Run until the
// deadline, at least opts.minRounds times and minSamples cells, checking each
// spec's CSV against its digest. A non-nil tracer gets one span per spec
// and one per cell, and st the grid-runner timings.
func (b *bench) gridRounds(ctx context.Context, deadline time.Time, tr *tracer, st *evalStats, out *result) ([]gridRound, error) {
	x, err := exp.New(ctx, exp.WithEnv(b.env), exp.WithWorkers(gridWorkers))
	if err != nil {
		return nil, err
	}
	var rounds []gridRound
	samples := 0
	for r := 0; r < b.opts.minRounds || samples < minSamples || time.Now().Before(deadline); r++ {
		spec := gridSpec(b.opts.seed, r, b.opts.scale)
		parent := -1
		if tr != nil {
			parent = tr.begin("exp.run", int64(r), -1)
		}
		timer := newCellTimer(tr, parent)
		t0 := time.Now()
		res, err := x.RunObserved(ctx, spec, timer)
		wall := time.Since(t0)
		if tr != nil {
			tr.end(parent)
		}
		if err != nil {
			return nil, err
		}
		if st != nil {
			timer.addTo(st, gridWorkers)
		}
		cells, err := specCells(spec)
		if err != nil {
			return nil, err
		}
		out.attempted += len(cells)
		if len(res.Matrix.Cells) != len(cells) || !b.check.check(fmt.Sprintf("round/%d", r%gridSeedCycle), digestBytes([]byte(res.Matrix.CSV()))) {
			out.failed += len(cells)
			b.log("FAIL grid round %d: report differs from its digest", r)
		} else {
			for i := range cells {
				cells[i].want = &res.Matrix.Cells[i].Result
			}
		}
		gr := gridRound{spec: spec, wall: wall, cellMS: timer.latencies(), cells: cells}
		samples += len(gr.cellMS)
		rounds = append(rounds, gr)
	}
	return rounds, nil
}

func measureGrid(ctx context.Context, b *bench, d time.Duration, out *result) error {
	rounds, err := b.gridRounds(ctx, time.Now().Add(d), nil, nil, out)
	if err != nil {
		return err
	}
	var rates, lat, specS []float64
	for _, r := range rounds {
		rates = append(rates, float64(len(r.cells))/r.wall.Seconds())
		lat = append(lat, r.cellMS...)
		specS = append(specS, r.wall.Seconds())
	}
	out.metrics["ops_per_s"] = median(rates)
	b.log("%d specs of %d cells, spec s p50 %.3f", len(rounds), len(rounds[0].cells), median(specS))
	return latencyMetrics(lat, out)
}

func tracedGrid(ctx context.Context, b *bench, d time.Duration, out *result) ([]cell, error) {
	var st evalStats
	rounds, err := b.gridRounds(ctx, time.Now().Add(d), b.tr, &st, out)
	if err != nil {
		return nil, err
	}
	var cells []cell
	var specs []exp.Spec
	for _, r := range rounds {
		cells = append(cells, r.cells...)
		specs = append(specs, r.spec)
	}
	return cells, b.evalMetrics(st, specs, out)
}

// referenceGrid digests the report of every round seed of grid-quick.
func referenceGrid(ctx context.Context, b *bench) (digests, error) {
	x, err := exp.New(ctx, exp.WithEnv(b.env), exp.WithWorkers(gridWorkers))
	if err != nil {
		return nil, err
	}
	d := digests{}
	for r := 0; r < gridSeedCycle; r++ {
		res, err := x.Run(ctx, gridSpec(b.opts.seed, r, b.opts.scale))
		if err != nil {
			return nil, err
		}
		d[fmt.Sprintf("round/%d", r)] = digestBytes([]byte(res.Matrix.CSV()))
	}
	return d, nil
}
