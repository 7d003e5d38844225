package eval

// This file implements the sharded sweep runtime: the scenario × attack ×
// defense grid split into deterministic shards, streaming per-cell results
// as JSONL with checkpoint/resume. A sweep over N shards runs the same
// grid as one RunMatrixCtx call — cell seeds derive from the global grid
// index, so the decomposition never changes the numbers — and an
// interrupted shard restarts by replaying its checkpoint and executing
// only missing cells. The JSONL writer is an Observer: it subscribes to
// the same cell-finished events any other sink can.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
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

// PaperSweepConfig returns the paper-preset sweep shard: the full scenario
// registry against the default attack and defense axes with a fixed base
// seed, so shards executed on different machines (or re-run after an
// interrupt) always assemble into the same grid.
func PaperSweepConfig(shard, numShards int, jsonl string) SweepConfig {
	return SweepConfig{
		Matrix:    MatrixConfig{BaseSeed: 424243},
		Shard:     shard,
		NumShards: numShards,
		JSONL:     jsonl,
		Resume:    true,
	}
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

// jsonlWriter streams finished cells to the checkpoint file as an
// Observer: every EventCellDone appends one validated, flushed JSONL
// record. Observe is called from multiple workers; the mutex serialises
// the stream and the first write error is retained for the runner.
type jsonlWriter struct {
	grid Grid

	mu    sync.Mutex
	enc   *json.Encoder
	flush func() error
	err   error
}

// Observe implements Observer.
func (j *jsonlWriter) Observe(ev Event) {
	if ev.Kind != EventCellDone || ev.Result == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Stream in completion order; the report reorders by index.
	err := j.enc.Encode(j.grid.Record(ev.Cell.Index, *ev.Result))
	if err == nil {
		err = j.flush()
	}
	if err != nil && j.err == nil {
		j.err = err
	}
}

// RunSweepCtx executes this shard of the grid, streaming each finished
// cell to the JSONL checkpoint and (with Resume) skipping cells the
// checkpoint already holds. The returned report's cells are ordered by
// global grid index and are bit-identical to the corresponding
// RunMatrixCtx cells — an interrupted-and-resumed shard produces exactly
// the cells of an uninterrupted run. Progress streams to the config's
// Observer (cfg.Matrix.Observer). A cancelled context stops dispatching
// cells promptly and returns the context error; every cell finished
// before the cancellation is already flushed to the JSONL checkpoint, so
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
	grid := NewGrid(cfg.Matrix, e.Preset)
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

	done := map[int]MatrixCell{}
	validLen := int64(0)
	if cfg.Resume && cfg.JSONL != "" {
		var err error
		done, validLen, err = grid.Load(cfg.JSONL)
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
	// finish closes the checkpoint file (set below when a JSONL lane is
	// open) before emitting run-done: a failed close is a failed write
	// of the lane's tail, and must fail the run, not vanish.
	var ckpt *os.File
	finish := func(err error) error {
		if ckpt != nil {
			cerr := ckpt.Close()
			ckpt = nil
			if cerr != nil && err == nil {
				err = fmt.Errorf("sweep: close checkpoint: %w", cerr)
			}
		}
		emit(obs, Event{Kind: EventRunDone, Total: len(specs), Err: err})
		return err
	}
	if err := ctx.Err(); err != nil {
		return SweepReport{}, finish(err)
	}
	e.warmDefenses(todo)

	var sink *jsonlWriter
	if cfg.JSONL != "" && len(todo) > 0 {
		if cfg.Resume {
			// Repair a torn tail (a record cut off by the interrupt this
			// resume recovers from): drop everything past the last complete
			// line so appended records start on a fresh line.
			if st, err := os.Stat(cfg.JSONL); err == nil && st.Size() > validLen {
				if err := os.Truncate(cfg.JSONL, validLen); err != nil {
					return SweepReport{}, finish(fmt.Errorf("sweep: repair checkpoint tail: %w", err))
				}
			}
		}
		mode := os.O_CREATE | os.O_WRONLY | os.O_APPEND
		if !cfg.Resume {
			mode |= os.O_TRUNC // fresh run: never mix grids in one stream
		}
		f, err := os.OpenFile(cfg.JSONL, mode, 0o644)
		if err != nil {
			return SweepReport{}, finish(fmt.Errorf("sweep: open checkpoint: %w", err))
		}
		ckpt = f // closed by finish on every exit path
		w := bufio.NewWriter(f)
		sink = &jsonlWriter{grid: grid, enc: json.NewEncoder(w), flush: w.Flush}
	}
	// The checkpoint writer and the caller's observer subscribe to the
	// same cell event stream.
	cellObs := obs
	if sink != nil {
		cellObs = MultiObserver(sink, obs)
	}

	fresh := make([]MatrixCell, len(todo))
	workers := make([]*regress.Regressor, e.maxWorkers(len(todo)))
	for i := range workers {
		workers[i] = e.Reg.Clone()
	}
	var nDone atomic.Int64
	runErr := parallelMapCtx(ctx, len(workers), len(todo), func(w, k int) {
		s := todo[k]
		emit(cellObs, Event{Kind: EventCellStart, Total: len(specs), Cell: s.id})
		cell := e.runMatrixCell(workers[w], s.scenario, s.attack, s.defense, cfg.Matrix, s.id.Seed)
		fresh[k] = cell
		emit(cellObs, Event{Kind: EventCellDone, Total: len(specs), Done: int(nDone.Add(1)), Cell: s.id, Result: &fresh[k]})
		e.logObs(obs, "sweep: shard %d/%d cell %d (%s / %s / %s) done",
			cfg.Shard, numShards, s.id.Index, s.scenario.Name, s.attack.Name, s.defense.Name)
	})
	if sink != nil && sink.err != nil {
		return SweepReport{}, finish(fmt.Errorf("sweep: checkpoint write: %w", sink.err))
	}
	if runErr != nil {
		// Cancelled: cells finished so far are flushed to the checkpoint,
		// so a Resume run picks up exactly the missing remainder.
		return SweepReport{}, finish(runErr)
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
	return rep, finish(nil)
}
