package eval

// This file implements the sharded sweep runtime: the scenario × attack ×
// defense grid split into deterministic shards, streaming per-cell results
// as JSONL with checkpoint/resume. A sweep over N shards runs the same
// grid as one RunMatrix call — cell seeds derive from the global grid
// index, so the decomposition never changes the numbers — and an
// interrupted shard restarts by replaying its checkpoint and executing
// only missing cells. The JSONL writer is an Observer: it subscribes to
// the same cell-finished events any other sink can.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/regress"
	"repro/internal/sim"
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

// sweepRecord is the JSONL line schema. Preset, Duration and DT pin the
// run configuration that produced the cell, so a resume under a different
// configuration is rejected instead of silently merging incompatible
// trajectories (cell index/seed/axis names alone can collide across
// configs — -paper-sweep even fixes the base seed by design).
type sweepRecord struct {
	Index    int       `json:"index"`
	Seed     int64     `json:"seed"`
	Preset   string    `json:"preset"`
	Duration float64   `json:"duration"`
	DT       float64   `json:"dt"`
	Cell     sweepCell `json:"cell"`
}

// JFloat is a float64 whose JSON round-trips IEEE infinities and NaN
// (MinTTC is +Inf whenever the gap never closes, which encoding/json
// rejects). It is the one float codec of checkpoint lines, the serving
// layer's wire events and cached payloads.
type JFloat float64

// MarshalJSON implements json.Marshaler.
func (f JFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = JFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = JFloat(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = JFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JFloat(v)
	return nil
}

// sweepCell mirrors MatrixCell with infinity-safe floats.
type sweepCell struct {
	Scenario string `json:"scenario"`
	Attack   string `json:"attack"`
	Defense  string `json:"defense"`
	Seed     int64  `json:"seed"`

	Collision  bool   `json:"collision"`
	MinGap     JFloat `json:"min_gap_m"`
	MinTTC     JFloat `json:"min_ttc_s"`
	MeanGapErr JFloat `json:"mean_gap_err_m"`
	Steps      int    `json:"steps"`

	Result sweepResult `json:"result"`
}

// sweepResult mirrors sim.Result.
type sweepResult struct {
	Times         []float64 `json:"times"`
	TrueGaps      []float64 `json:"true_gaps"`
	PerceivedGaps []float64 `json:"perceived_gaps"`
	EgoSpeeds     []float64 `json:"ego_speeds"`
	LeadSpeeds    []float64 `json:"lead_speeds"`
	MinGap        JFloat    `json:"min_gap"`
	MinTTC        JFloat    `json:"min_ttc"`
	Collision     bool      `json:"collision"`
}

func toSweepCell(c MatrixCell) sweepCell {
	return sweepCell{
		Scenario: c.Scenario, Attack: c.Attack, Defense: c.Defense, Seed: c.Seed,
		Collision: c.Collision, MinGap: JFloat(c.MinGap), MinTTC: JFloat(c.MinTTC),
		MeanGapErr: JFloat(c.MeanGapErr), Steps: c.Steps,
		Result: sweepResult{
			Times: c.Result.Times, TrueGaps: c.Result.TrueGaps,
			PerceivedGaps: c.Result.PerceivedGaps, EgoSpeeds: c.Result.EgoSpeeds,
			LeadSpeeds: c.Result.LeadSpeeds,
			MinGap:     JFloat(c.Result.MinGap), MinTTC: JFloat(c.Result.MinTTC),
			Collision: c.Result.Collision,
		},
	}
}

// SweepRecord is the exported view of one JSONL checkpoint line: a
// finished grid cell plus the run configuration that produced it. The
// fleet dispatcher and the serving layer move these records between
// machines; Marshal/Unmarshal reproduce exactly the bytes the in-process
// checkpoint writer streams, so a record received over the wire and
// appended to a local checkpoint file is indistinguishable from one the
// worker wrote itself.
type SweepRecord struct {
	Index    int
	Seed     int64
	Preset   string
	Duration float64
	DT       float64
	Cell     MatrixCell
}

// MarshalJSON implements json.Marshaler with the checkpoint line schema.
func (r SweepRecord) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepRecord{
		Index: r.Index, Seed: r.Seed, Preset: r.Preset,
		Duration: r.Duration, DT: r.DT, Cell: toSweepCell(r.Cell),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *SweepRecord) UnmarshalJSON(b []byte) error {
	var rec sweepRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return err
	}
	*r = SweepRecord{
		Index: rec.Index, Seed: rec.Seed, Preset: rec.Preset,
		Duration: rec.Duration, DT: rec.DT, Cell: fromSweepCell(rec.Cell),
	}
	return nil
}

// Validate checks the record against a grid identity and run
// configuration — the per-record check checkpoint resume and shard merge
// apply: the index must lie inside the grid, the run configuration must
// match, and the cell's seed and axis names must equal the grid's.
func (r SweepRecord) Validate(ids []CellID, preset string, duration, dt float64) error {
	if r.Index < 0 || r.Index >= len(ids) {
		return fmt.Errorf("cell index %d outside grid of %d", r.Index, len(ids))
	}
	if r.Preset != preset || r.Duration != duration || r.DT != dt {
		return fmt.Errorf("written under preset=%s duration=%v dt=%v, expected preset=%s duration=%v dt=%v — stale checkpoint?",
			r.Preset, r.Duration, r.DT, preset, duration, dt)
	}
	id := ids[r.Index]
	if r.Seed != id.Seed || r.Cell.Scenario != id.Scenario ||
		r.Cell.Attack != id.Attack || r.Cell.Defense != id.Defense {
		return fmt.Errorf("cell %d (%s/%s/%s seed %d) does not match the configured grid (%s/%s/%s seed %d) — stale checkpoint?",
			r.Index, r.Cell.Scenario, r.Cell.Attack, r.Cell.Defense, r.Seed,
			id.Scenario, id.Attack, id.Defense, id.Seed)
	}
	return nil
}

func fromSweepCell(c sweepCell) MatrixCell {
	return MatrixCell{
		Scenario: c.Scenario, Attack: c.Attack, Defense: c.Defense, Seed: c.Seed,
		Collision: c.Collision, MinGap: float64(c.MinGap), MinTTC: float64(c.MinTTC),
		MeanGapErr: float64(c.MeanGapErr), Steps: c.Steps,
		Result: sim.Result{
			Times: c.Result.Times, TrueGaps: c.Result.TrueGaps,
			PerceivedGaps: c.Result.PerceivedGaps, EgoSpeeds: c.Result.EgoSpeeds,
			LeadSpeeds: c.Result.LeadSpeeds,
			MinGap:     float64(c.Result.MinGap), MinTTC: float64(c.Result.MinTTC),
			Collision: c.Result.Collision,
		},
	}
}

// jsonlWriter streams finished cells to the checkpoint file as an
// Observer: every EventCellDone appends one validated, flushed JSONL
// record. Observe is called from multiple workers; the mutex serialises
// the stream and the first write error is retained for the runner.
type jsonlWriter struct {
	preset   string
	duration float64
	dt       float64

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
	err := j.enc.Encode(sweepRecord{
		Index: ev.Cell.Index, Seed: ev.Cell.Seed, Preset: j.preset,
		Duration: j.duration, DT: j.dt,
		Cell: toSweepCell(*ev.Result),
	})
	if err == nil {
		err = j.flush()
	}
	if err != nil && j.err == nil {
		j.err = err
	}
}

// RunSweep executes this shard of the grid, streaming each finished cell
// to the JSONL checkpoint and (with Resume) skipping cells the checkpoint
// already holds. The returned report's cells are ordered by global grid
// index and are bit-identical to the corresponding RunMatrix cells — an
// interrupted-and-resumed shard produces exactly the cells of an
// uninterrupted run.
func (e *Env) RunSweep(cfg SweepConfig) (SweepReport, error) {
	return e.RunSweepCtx(context.Background(), cfg)
}

// RunSweepCtx is RunSweep under a cancellation context and the config's
// Observer (cfg.Matrix.Observer). A cancelled context stops dispatching
// cells promptly and returns the context error; every cell finished before
// the cancellation is already flushed to the JSONL checkpoint, so a
// -resume run completes exactly the missing remainder.
func (e *Env) RunSweepCtx(ctx context.Context, cfg SweepConfig) (SweepReport, error) {
	numShards := cfg.NumShards
	if numShards <= 0 {
		numShards = 1
	}
	if cfg.Shard < 0 || cfg.Shard >= numShards {
		return SweepReport{}, fmt.Errorf("sweep: shard %d out of range 0..%d", cfg.Shard, numShards-1)
	}

	specs := e.expandGrid(cfg.Matrix)
	ids := make([]CellID, len(specs))
	for i, s := range specs {
		ids[i] = s.id
	}
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
		done, validLen, err = LoadSweepCheckpoint(cfg.JSONL, ids, e.Preset.Name, cfg.Matrix.Duration, cfg.Matrix.DT)
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
		sink = &jsonlWriter{
			preset: e.Preset.Name, duration: cfg.Matrix.Duration, dt: cfg.Matrix.DT,
			enc: json.NewEncoder(w), flush: w.Flush,
		}
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

// LoadSweepCheckpoint replays a JSONL stream, validating every record
// against the grid identity. It returns the recovered cells and the byte
// length of the stream's valid prefix: a truncated trailing line (a write
// cut off by the interrupt the resume is recovering from) is tolerated and
// excluded from the prefix, so the caller can repair the tail before
// appending; any other malformed or mismatching record is an error. A
// missing file is an empty resume state, not an error. Besides the sweep
// runtime's own resume, the fleet dispatcher uses this to follow worker
// checkpoints, recover crashed dispatch sessions, and probe lane files
// before the final merge.
func LoadSweepCheckpoint(path string, ids []CellID, preset string, duration, dt float64) (map[int]MatrixCell, int64, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[int]MatrixCell{}, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	return loadSweepCheckpointBuf(buf, path, ids, preset, duration, dt)
}

// LoadSweepCheckpointBytes is LoadSweepCheckpoint over an in-memory
// stream: the same validation and torn-tail tolerance, applied to
// checkpoint bytes fetched from somewhere other than a local file — a
// mirror tree, an object-store segment, a wire payload. This is what lets
// checkpoint transports validate remote lane content before merging it
// into local state.
func LoadSweepCheckpointBytes(buf []byte, ids []CellID, preset string, duration, dt float64) (map[int]MatrixCell, int64, error) {
	return loadSweepCheckpointBuf(buf, "stream", ids, preset, duration, dt)
}

func loadSweepCheckpointBuf(buf []byte, name string, ids []CellID, preset string, duration, dt float64) (map[int]MatrixCell, int64, error) {
	done := map[int]MatrixCell{}
	validLen := int64(0)
	lineNo := 0
	for start := 0; start < len(buf); {
		end := start
		for end < len(buf) && buf[end] != '\n' {
			end++
		}
		line := buf[start:end]
		terminated := end < len(buf)
		lineNo++

		if len(line) > 0 {
			var rec SweepRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				if !terminated {
					// Torn tail: the interrupt cut this write short. Stop
					// here; the valid prefix ends at the previous line.
					break
				}
				return nil, 0, fmt.Errorf("sweep: checkpoint %s line %d: %w", name, lineNo, err)
			}
			if err := rec.Validate(ids, preset, duration, dt); err != nil {
				return nil, 0, fmt.Errorf("sweep: checkpoint %s line %d: %w", name, lineNo, err)
			}
			if terminated {
				// An unterminated record — even one that parses — is not
				// counted done: the truncation repair drops it, and the
				// resumed run re-executes and re-streams that cell.
				done[rec.Index] = rec.Cell
			}
		}

		if !terminated {
			break
		}
		start = end + 1
		validLen = int64(start)
	}
	return done, validLen, nil
}
