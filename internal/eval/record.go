package eval

// The cell-record codec: one finished grid cell as its JSONL checkpoint
// line, and the grid stamp the line is validated against. Checkpoint
// lanes, object-store segments, the serving layer's wire events and its
// cached result payloads all carry exactly these bytes. Grid is also the
// one place lane files are opened and appended to (OpenLane), record sets
// are folded together (Fold) and two cells are compared (SameCell).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Grid is what a cell record must match: the grid identity (per-cell
// index, seed and axis names) plus the run configuration that stamps
// every record. Preset, Duration and DT pin the configuration, so a
// resume or merge under a different one is rejected instead of silently
// mixing incompatible trajectories (cell index/seed/axis names alone can
// collide across configs — -paper-sweep even fixes the base seed by
// design).
type Grid struct {
	IDs      []CellID
	Preset   string
	Duration float64
	DT       float64
}

// NewGrid expands cfg's grid under preset p and stamps it with the run
// configuration every record of the run carries.
func NewGrid(cfg MatrixConfig, p Preset) Grid {
	return Grid{IDs: CellIDs(cfg, p.Seed), Preset: p.Name, Duration: cfg.Duration, DT: cfg.DT}
}

// SweepRecord is one JSONL checkpoint line: a finished grid cell plus
// the run configuration that produced it. The fleet dispatcher and the
// serving layer move these records between machines; a record received
// over the wire and appended to a local checkpoint file is
// indistinguishable from one the worker wrote itself.
type SweepRecord struct {
	Index    int        `json:"index"`
	Seed     int64      `json:"seed"`
	Preset   string     `json:"preset"`
	Duration float64    `json:"duration"`
	DT       float64    `json:"dt"`
	Cell     MatrixCell `json:"cell"`
}

// Record stamps the finished cell at grid index idx as its checkpoint
// record.
func (g Grid) Record(idx int, cell MatrixCell) SweepRecord {
	return SweepRecord{
		Index: idx, Seed: cell.Seed, Preset: g.Preset,
		Duration: g.Duration, DT: g.DT, Cell: cell,
	}
}

// Validate is the per-record check checkpoint resume and shard merge
// apply: the index must lie inside the grid, the run configuration must
// match, and the record's seed, the cell's own seed and its axis names
// must equal the grid's.
func (g Grid) Validate(r SweepRecord) error {
	if r.Index < 0 || r.Index >= len(g.IDs) {
		return fmt.Errorf("cell index %d outside grid of %d", r.Index, len(g.IDs))
	}
	if r.Preset != g.Preset || r.Duration != g.Duration || r.DT != g.DT {
		return fmt.Errorf("written under preset=%s duration=%v dt=%v, expected preset=%s duration=%v dt=%v — stale checkpoint?",
			r.Preset, r.Duration, r.DT, g.Preset, g.Duration, g.DT)
	}
	id := g.IDs[r.Index]
	if r.Seed != id.Seed || r.Cell.Scenario != id.Scenario ||
		r.Cell.Attack != id.Attack || r.Cell.Defense != id.Defense {
		return fmt.Errorf("cell %d (%s/%s/%s seed %d) does not match the configured grid (%s/%s/%s seed %d) — stale checkpoint?",
			r.Index, r.Cell.Scenario, r.Cell.Attack, r.Cell.Defense, r.Seed,
			id.Scenario, id.Attack, id.Defense, id.Seed)
	}
	if r.Cell.Seed != id.Seed {
		return fmt.Errorf("cell %d ran under seed %d, the grid's is %d — stale checkpoint?", r.Index, r.Cell.Seed, id.Seed)
	}
	return nil
}

// Load replays a JSONL checkpoint file, validating every record against
// the grid. It returns the recovered cells and the byte length of the
// stream's valid prefix: a truncated trailing line (a write cut off by
// the interrupt the resume is recovering from) is tolerated and excluded
// from the prefix, so the caller can repair the tail before appending;
// any other malformed or mismatching record is an error. A missing file
// is an empty resume state, not an error. Besides the sweep runtime's own
// resume, the fleet dispatcher uses this to follow worker checkpoints,
// recover crashed dispatch sessions, and probe lane files before the
// final merge.
func (g Grid) Load(path string) (map[int]MatrixCell, int64, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[int]MatrixCell{}, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	return g.load(buf, path)
}

// LoadBytes is Load over an in-memory stream: the same validation and
// torn-tail tolerance, applied to checkpoint bytes fetched from somewhere
// other than a local file — a mirror tree, an object-store segment, a
// wire payload. This is what lets checkpoint transports validate remote
// lane content before merging it into local state.
func (g Grid) LoadBytes(buf []byte) (map[int]MatrixCell, int64, error) {
	return g.load(buf, "stream")
}

func (g Grid) load(buf []byte, name string) (map[int]MatrixCell, int64, error) {
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
			if err := g.Validate(rec); err != nil {
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

// SameCell reports whether a and b are the same record: equal under the
// record codec's encoding, so a NaN metric equals NaN while any bit
// difference in a finite value is a divergence.
func (Grid) SameCell(a, b MatrixCell) bool {
	ja, err := json.Marshal(a)
	if err != nil {
		return false
	}
	jb, err := json.Marshal(b)
	return err == nil && bytes.Equal(ja, jb)
}

// Fold adds the cells of src that dst lacks to dst, in grid order, and
// returns their indices ascending. A cell both maps hold must be the same
// record (SameCell). Fold stops at the lowest index where the two differ
// and returns it as diverged, with the cells below it already added;
// diverged is -1 when no cell differs.
func (g Grid) Fold(dst, src map[int]MatrixCell) (added []int, diverged int) {
	idxs := make([]int, 0, len(src))
	for idx := range src {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		cell := src[idx]
		if prev, dup := dst[idx]; dup {
			if !g.SameCell(prev, cell) {
				return added, idx
			}
			continue
		}
		dst[idx] = cell
		added = append(added, idx)
	}
	return added, -1
}

// Lane is a checkpoint lane file open for appending. A lane is
// append-only: every record goes out as one whole line in one Write, so
// a crash tears at most the final line, and the next resume cuts that
// line off before it appends. Records deduplicate by grid index. Append
// is safe for concurrent use.
type Lane struct {
	grid Grid

	mu   sync.Mutex
	f    *os.File
	seen map[int]bool
	err  error // first write error; the lane takes no record after it
}

// OpenLane opens the lane file at path for appending records of g. With
// resume, it returns the cells the file already holds (validated as Load
// does; a missing file is an empty lane) and cuts off a torn final line.
// Without resume, the file is truncated, so a fresh run never mixes its
// records with an earlier run's.
func (g Grid) OpenLane(path string, resume bool) (*Lane, map[int]MatrixCell, error) {
	done := map[int]MatrixCell{}
	mode := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if resume {
		var validLen int64
		var err error
		if done, validLen, err = g.Load(path); err != nil {
			return nil, nil, err
		}
		if st, err := os.Stat(path); err == nil && st.Size() > validLen {
			if err := os.Truncate(path, validLen); err != nil {
				return nil, nil, fmt.Errorf("sweep: repair checkpoint tail: %w", err)
			}
		}
	} else {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	seen := make(map[int]bool, len(done))
	//advlint:ordered-ok map-to-set fold keyed by grid index; order-free
	for idx := range done {
		seen[idx] = true
	}
	return &Lane{grid: g, f: f, seen: seen}, done, nil
}

// Append writes the record of the finished cell at grid index idx,
// unless the lane already holds that index, and reports whether it
// wrote. After a failed write the lane is broken: a partial line may
// end it, so every later Append returns the first error.
func (l *Lane) Append(idx int, cell MatrixCell) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return false, l.err
	}
	if l.seen[idx] {
		return false, nil
	}
	line, err := json.Marshal(l.grid.Record(idx, cell))
	if err == nil {
		_, err = l.f.Write(append(line, '\n'))
	}
	if err != nil {
		l.err = fmt.Errorf("sweep: checkpoint write: %w", err)
		return false, l.err
	}
	l.seen[idx] = true
	return true, nil
}

// Close syncs and closes the lane file and returns the first write error,
// else the sync or close error: on buffered filesystems the close is
// where a failed write finally reports. Closing a closed lane returns nil,
// so a deferred Close can cover error paths while the success path
// checks it.
func (l *Lane) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.err
	if serr := l.f.Sync(); err == nil && serr != nil {
		err = fmt.Errorf("sweep: sync checkpoint: %w", serr)
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("sweep: close checkpoint: %w", cerr)
	}
	l.f = nil
	return err
}

// JFloat is a float64 whose JSON round-trips IEEE infinities and NaN
// (MinTTC is +Inf whenever the gap never closes, which encoding/json
// rejects). It is the one float codec of cell records, wherever they
// travel.
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

// jfloats is a trajectory under the JFloat codec. An all-finite slice —
// every trajectory a healthy run produces — encodes exactly as
// encoding/json encodes a []float64.
type jfloats []float64

// MarshalJSON implements json.Marshaler.
func (s jfloats) MarshalJSON() ([]byte, error) {
	for _, v := range s {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			js := make([]JFloat, len(s))
			for i, v := range s {
				js[i] = JFloat(v)
			}
			return json.Marshal(js)
		}
	}
	return json.Marshal([]float64(s))
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *jfloats) UnmarshalJSON(b []byte) error {
	if err := json.Unmarshal(b, (*[]float64)(s)); err == nil {
		return nil
	}
	var js []JFloat
	if err := json.Unmarshal(b, &js); err != nil {
		return err
	}
	*s = make(jfloats, len(js))
	for i, v := range js {
		(*s)[i] = float64(v)
	}
	return nil
}

// sweepCell is MatrixCell's wire form, with infinity-safe floats.
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

// sweepResult is sim.Result's wire form.
type sweepResult struct {
	Times         jfloats `json:"times"`
	TrueGaps      jfloats `json:"true_gaps"`
	PerceivedGaps jfloats `json:"perceived_gaps"`
	EgoSpeeds     jfloats `json:"ego_speeds"`
	LeadSpeeds    jfloats `json:"lead_speeds"`
	MinGap        JFloat  `json:"min_gap"`
	MinTTC        JFloat  `json:"min_ttc"`
	Collision     bool    `json:"collision"`
}

// MarshalJSON implements json.Marshaler with the checkpoint cell schema.
func (c MatrixCell) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepCell{
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
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *MatrixCell) UnmarshalJSON(b []byte) error {
	var w sweepCell
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*c = MatrixCell{
		Scenario: w.Scenario, Attack: w.Attack, Defense: w.Defense, Seed: w.Seed,
		Collision: w.Collision, MinGap: float64(w.MinGap), MinTTC: float64(w.MinTTC),
		MeanGapErr: float64(w.MeanGapErr), Steps: w.Steps,
		Result: sim.Result{
			Times: w.Result.Times, TrueGaps: w.Result.TrueGaps,
			PerceivedGaps: w.Result.PerceivedGaps, EgoSpeeds: w.Result.EgoSpeeds,
			LeadSpeeds: w.Result.LeadSpeeds,
			MinGap:     float64(w.Result.MinGap), MinTTC: float64(w.Result.MinTTC),
			Collision: w.Result.Collision,
		},
	}
	return nil
}
