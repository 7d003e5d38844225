package eval

// This file implements the grid runtime: the scenario × attack × defense
// grid split into deterministic shards, appending per-cell results to a
// JSONL lane with checkpoint/resume. RunMatrixCtx is its one-shard,
// lane-less case. A sweep over N shards runs the same grid as one
// RunMatrixCtx call — cell seeds derive from the global grid index, so
// the decomposition never changes the numbers — and an interrupted shard
// restarts by replaying its lane and executing only missing cells.

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/regress"
)

// SweepConfig declares one shard of a sweep over the evaluation grid.
type SweepConfig struct {
	Matrix MatrixConfig

	// Shard/NumShards select the cells this process runs: cell i belongs
	// to shard i mod NumShards (round-robin, which balances scenarios of
	// different cost across shards). NumShards 0 means 1.
	Shard     int
	NumShards int

	// JSONL is the checkpoint stream: every finished cell is appended as
	// one JSON line. Empty disables checkpointing.
	JSONL string
	// Resume replays JSONL before running and executes only the shard's
	// missing cells. The checkpoint is validated against the expanded grid
	// (index, seed and axis names must match), so a stale file from a
	// different grid fails loudly instead of silently merging.
	Resume bool
}

// SweepReport is one shard's slice of the grid, ordered by global index.
type SweepReport struct {
	Preset    string
	Total     int // full grid size
	Shard     int
	NumShards int

	Indices []int        // global grid indices this shard covers
	Cells   []MatrixCell // aligned with Indices
	Resumed int          // cells loaded from the checkpoint instead of run
}

// Matrix adapts the shard's cells to MatrixReport for formatting.
func (r SweepReport) Matrix() MatrixReport {
	return MatrixReport{Preset: r.Preset, Cells: r.Cells}
}

// RunSweepCtx executes this shard of the grid, appending each finished
// cell to the JSONL lane before its cell-done event and (with Resume)
// skipping cells the lane already holds. The returned report's cells are ordered by
// global grid index and are bit-identical to the corresponding
// RunMatrixCtx cells — an interrupted-and-resumed shard produces exactly
// the cells of an uninterrupted run. Progress streams to the config's
// Observer (cfg.Matrix.Observer). A cancelled context stops dispatching
// cells promptly and returns the context error; every cell finished
// before the cancellation is already in the lane, so
// a -resume run completes exactly the missing remainder.
func (e *Env) RunSweepCtx(ctx context.Context, cfg SweepConfig) (SweepReport, error) {
	numShards := cfg.NumShards
	if numShards <= 0 {
		numShards = 1
	}
	if cfg.Shard < 0 || cfg.Shard >= numShards {
		return SweepReport{}, fmt.Errorf("sweep: shard %d out of range 0..%d", cfg.Shard, numShards-1)
	}

	specs := e.expandGrid(cfg.Matrix)
	rep := SweepReport{
		Preset: e.Preset.Name, Total: len(specs),
		Shard: cfg.Shard, NumShards: numShards,
	}

	// This shard's cells, round-robin over the global index.
	var mine []cellSpec
	for _, s := range specs {
		if s.id.Index%numShards == cfg.Shard {
			mine = append(mine, s)
		}
	}

	var lane *Lane
	done := map[int]MatrixCell{}
	if cfg.JSONL != "" {
		var err error
		lane, done, err = NewGrid(cfg.Matrix, e.Preset).OpenLane(cfg.JSONL, cfg.Resume)
		if err != nil {
			return SweepReport{}, err
		}
	}

	var todo []cellSpec
	for _, s := range mine {
		if _, ok := done[s.id.Index]; !ok {
			todo = append(todo, s)
		}
	}

	obs := cfg.Matrix.Observer
	emit(obs, Event{Kind: EventRunStart, Total: len(specs)})
	// finish closes the lane before emitting run-done: a failed write or
	// close of the lane's tail must fail the run, not vanish.
	finish := func(err error) error {
		if lane != nil {
			if cerr := lane.Close(); err == nil {
				err = cerr
			}
		}
		emit(obs, Event{Kind: EventRunDone, Total: len(specs), Err: err})
		return err
	}
	if err := ctx.Err(); err != nil {
		return SweepReport{}, finish(err)
	}
	e.warmDefenses(todo)

	fresh := make([]MatrixCell, len(todo))
	workers := make([]*regress.Regressor, e.maxWorkers(len(todo)))
	for i := range workers {
		workers[i] = e.Reg.Clone()
	}
	var nDone atomic.Int64
	runErr := parallelMapCtx(ctx, len(workers), len(todo), func(w, k int) {
		s := todo[k]
		emit(obs, Event{Kind: EventCellStart, Total: len(specs), Cell: s.id})
		fresh[k] = e.runMatrixCell(workers[w], s.scenario, s.attack, s.defense, cfg.Matrix, s.id.Seed)
		if lane != nil {
			// A write error sticks to the lane, and finish reports it
			// from Close.
			_, _ = lane.Append(s.id.Index, fresh[k])
		}
		n := int(nDone.Add(1))
		emit(obs, Event{Kind: EventCellDone, Total: len(specs), Done: n, Cell: s.id, Result: &fresh[k]})
		e.logObs(obs, "shard %d/%d: cell %d (%s / %s / %s) done (%d/%d)",
			cfg.Shard, numShards, s.id.Index, s.scenario.Name, s.attack.Name, s.defense.Name, n, len(todo))
	})
	if err := finish(runErr); err != nil {
		// Cancelled: cells finished so far are in the lane, so a Resume
		// run picks up exactly the missing remainder.
		return SweepReport{}, err
	}

	// Assemble the shard slice in global-index order.
	next := 0
	for _, s := range mine {
		cell, ok := done[s.id.Index]
		if ok {
			rep.Resumed++
		} else {
			cell = fresh[next]
			next++
		}
		rep.Indices = append(rep.Indices, s.id.Index)
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}
