package eval

// Multi-machine shard merge: N sweep shards, run anywhere, stream their
// cells as JSONL; Grid.Merge joins the files back into the one grid they
// decompose. The grid identity makes verification exact: every record
// must match its cell's index, seed and axis names, every cell must be
// covered, and a cell appearing in several files must carry identical
// results.

import (
	"fmt"
	"os"
)

// Merge joins shard checkpoint files into the combined grid report. g is
// the grid the shards were derived from, stamped with the configuration
// they ran under. It verifies:
//
//   - every record matches the grid (index range, seed, axis names,
//     preset/duration/dt) — the Load validation;
//   - the files jointly cover every cell of the grid exactly;
//   - a cell present in more than one file (overlapping shards, a resumed
//     file merged next to a complete one) is the same record (SameCell).
//
// The returned report's cells are in global grid order: merging the
// shards of a sweep reproduces the corresponding RunMatrixCtx report.
func (g Grid) Merge(paths []string) (MatrixReport, error) {
	if len(paths) == 0 {
		return MatrixReport{}, fmt.Errorf("merge: no shard files given")
	}
	cells := make(map[int]MatrixCell, len(g.IDs))
	from := make(map[int]string, len(g.IDs))
	for _, path := range paths {
		// Load treats a missing file as an empty resume state; for a
		// merge a missing shard is a caller error (typoed path, un-synced
		// machine), so surface it as one.
		if _, err := os.Stat(path); err != nil {
			return MatrixReport{}, fmt.Errorf("merge: shard file: %w", err)
		}
		done, _, err := g.Load(path)
		if err != nil {
			return MatrixReport{}, fmt.Errorf("merge: %w", err)
		}
		if len(done) == 0 {
			return MatrixReport{}, fmt.Errorf("merge: %s holds no complete cells", path)
		}
		// Fold in grid order so a divergence between shard files always
		// reports the same (lowest) cell.
		added, bad := g.Fold(cells, done)
		if bad >= 0 {
			c := done[bad]
			return MatrixReport{}, fmt.Errorf("merge: cell %d (%s/%s/%s) differs between %s and %s — shards from diverging runs?",
				bad, c.Scenario, c.Attack, c.Defense, from[bad], path)
		}
		for _, idx := range added {
			from[idx] = path
		}
	}

	missing := 0
	firstMissing := -1
	for _, id := range g.IDs {
		if _, ok := cells[id.Index]; !ok {
			if firstMissing < 0 {
				firstMissing = id.Index
			}
			missing++
		}
	}
	if missing > 0 {
		id := g.IDs[firstMissing]
		return MatrixReport{}, fmt.Errorf("merge: grid coverage incomplete: %d of %d cells missing (first: cell %d, %s/%s/%s) — is a shard file absent or interrupted?",
			missing, len(g.IDs), id.Index, id.Scenario, id.Attack, id.Defense)
	}

	rep := MatrixReport{Preset: g.Preset, Cells: make([]MatrixCell, len(g.IDs))}
	for _, id := range g.IDs {
		rep.Cells[id.Index] = cells[id.Index]
	}
	return rep, nil
}
