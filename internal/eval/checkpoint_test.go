package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// Checkpoint behaviour under dispatcher conditions: lane files written by
// remote workers, duplicated by hedged shards, torn by crashes, and
// carried across re-dispatch generations. These tests fabricate records
// directly (no trained environment) — the invariants under test live
// entirely in the record/checkpoint layer.

// fabricatedGrid is a synthetic 2×2×2 grid under a fixed run stamp.
func fabricatedGrid() Grid {
	ids := make([]CellID, 0, 8)
	for _, sc := range []string{"s0", "s1"} {
		for _, at := range []string{"none", "cap"} {
			for _, df := range []string{"none", "median"} {
				i := len(ids)
				ids = append(ids, CellID{
					Index: i, Seed: 5000 + int64(i)*17,
					Scenario: sc, Attack: at, Defense: df,
				})
			}
		}
	}
	return Grid{IDs: ids, Preset: "micro", Duration: 0.8, DT: 0.1}
}

// fabricatedCell derives a deterministic MatrixCell from a grid identity,
// including one +Inf TTC so the infinity-safe encoding is on the path.
func fabricatedCell(id CellID) MatrixCell {
	ttc := 1.5 + float64(id.Index)
	if id.Index == 2 {
		ttc = math.Inf(1)
	}
	return MatrixCell{
		Scenario: id.Scenario, Attack: id.Attack, Defense: id.Defense, Seed: id.Seed,
		Collision: id.Index%3 == 0,
		MinGap:    0.5 + float64(id.Index), MinTTC: ttc,
		MeanGapErr: 0.125 * float64(id.Index), Steps: 10 + id.Index,
		Result: sim.Result{
			Times:    []float64{0, 0.1},
			TrueGaps: []float64{float64(id.Index), float64(id.Index) + 1},
			MinGap:   0.5 + float64(id.Index), MinTTC: ttc,
			Collision: id.Index%3 == 0,
		},
	}
}

// laneLine encodes one checkpoint line (with trailing newline) for cell i.
func laneLine(t *testing.T, g Grid, i int) []byte {
	t.Helper()
	buf, err := json.Marshal(g.Record(i, fabricatedCell(g.IDs[i])))
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

func writeLane(t *testing.T, path string, g Grid, pick []int) {
	t.Helper()
	var buf []byte
	for _, i := range pick {
		buf = append(buf, laneLine(t, g, i)...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSweepCheckpointTornTailMidRecord: a crash mid-append leaves a
// partial final line; loading must recover every complete record, report
// the valid prefix length exactly at the last complete line, and never
// count the torn record done. An unterminated line that happens to parse
// is equally not done — the repair truncates it and the cell re-runs.
func TestLoadSweepCheckpointTornTailMidRecord(t *testing.T) {
	g := fabricatedGrid()
	dir := t.TempDir()
	path := filepath.Join(dir, "lane.jsonl")

	var complete []byte
	for _, i := range []int{0, 1, 2} {
		complete = append(complete, laneLine(t, g, i)...)
	}
	torn := laneLine(t, g, 3)
	torn = torn[:len(torn)/2] // cut mid-record, no newline
	if err := os.WriteFile(path, append(append([]byte{}, complete...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	done, validLen, err := g.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("recovered %d cells, want 3", len(done))
	}
	if validLen != int64(len(complete)) {
		t.Fatalf("valid prefix %d bytes, want %d (end of last complete line)", validLen, len(complete))
	}
	for _, i := range []int{0, 1, 2} {
		if !reflect.DeepEqual(done[i], fabricatedCell(g.IDs[i])) {
			t.Fatalf("cell %d corrupted by round trip", i)
		}
	}
	if _, torn := done[3]; torn {
		t.Fatal("torn record counted as done")
	}

	// Repair + re-append, as the resumed worker does: truncate to the
	// valid prefix, append the record whole — now all four count.
	if err := os.Truncate(path, validLen); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(laneLine(t, g, 3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	done, _, err = g.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 {
		t.Fatalf("after repair: %d cells, want 4", len(done))
	}

	// A final record that parses but lacks its newline is still not done.
	unterminated := laneLine(t, g, 4)
	unterminated = unterminated[:len(unterminated)-1]
	f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(unterminated); err != nil {
		t.Fatal(err)
	}
	f.Close()
	done, validLen2, err := g.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := done[4]; ok {
		t.Fatal("unterminated record counted as done")
	}
	if len(done) != 4 {
		t.Fatalf("unterminated tail changed recovery: %d cells", len(done))
	}
	if st, _ := os.Stat(path); validLen2 >= st.Size() {
		t.Fatalf("valid prefix %d should exclude the unterminated tail (file %d)", validLen2, st.Size())
	}
}

// TestLoadSweepCheckpointRejectsForeignGeneration: a lane file surviving
// from an earlier dispatch generation whose grid diverged (different
// seeds, different run configuration) must be rejected loudly when the
// re-dispatch resumes onto it — silent mixing would corrupt the merge.
func TestLoadSweepCheckpointRejectsForeignGeneration(t *testing.T) {
	g := fabricatedGrid()
	dir := t.TempDir()
	path := filepath.Join(dir, "lane.jsonl")
	writeLane(t, path, g, []int{0, 1})

	// Generation 2 re-derives the grid under a different base seed.
	shifted := g
	shifted.IDs = make([]CellID, len(g.IDs))
	copy(shifted.IDs, g.IDs)
	for i := range shifted.IDs {
		shifted.IDs[i].Seed += 1000
	}
	_, _, err := shifted.Load(path)
	if err == nil || !strings.Contains(err.Error(), "stale checkpoint?") {
		t.Fatalf("foreign-seed generation not rejected as stale: %v", err)
	}

	// Same grid, different run configuration: also a foreign generation.
	long := g
	long.Duration *= 2
	if _, _, err := long.Load(path); err == nil ||
		!strings.Contains(err.Error(), "stale checkpoint?") {
		t.Fatalf("foreign-duration generation not rejected: %v", err)
	}
	paper := g
	paper.Preset = "paper"
	if _, _, err := paper.Load(path); err == nil {
		t.Fatalf("foreign-preset generation not rejected: %v", err)
	}

	// A record whose stamp matches the grid but whose cell ran under a
	// foreign seed is foreign too.
	rec := g.Record(1, fabricatedCell(g.IDs[1]))
	rec.Cell.Seed += 1000
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	reseeded := filepath.Join(dir, "reseeded.jsonl")
	if err := os.WriteFile(reseeded, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Load(reseeded); err == nil || !strings.Contains(err.Error(), "stale checkpoint?") {
		t.Fatalf("foreign cell seed not rejected as stale: %v", err)
	}

	// The matching generation still loads.
	done, _, err := g.Load(path)
	if err != nil || len(done) != 2 {
		t.Fatalf("matching generation failed: %d cells, %v", len(done), err)
	}
}

// TestMergeSweepsDuplicateHedgedCells: a hedged shard delivers its cells
// twice — once from the straggler's lane, once from the hedge lane. The
// merge must accept bit-identical duplicates and produce the exact grid;
// a duplicate that DIFFERS (diverging runs) must abort the merge.
func TestMergeSweepsDuplicateHedgedCells(t *testing.T) {
	g := fabricatedGrid()
	dir := t.TempDir()
	primary := filepath.Join(dir, "shard_0_of_2.jsonl")
	hedge := filepath.Join(dir, "shard_0_of_2_hedge.jsonl")
	other := filepath.Join(dir, "shard_1_of_2.jsonl")

	// The straggler finished half its shard before the hedge fired; the
	// hedge re-ran the whole shard. Cells 0 and 2 exist in both lanes.
	writeLane(t, primary, g, []int{0, 2})
	writeLane(t, hedge, g, []int{0, 2, 4, 6})
	writeLane(t, other, g, []int{1, 3, 5, 7})

	rep, err := g.Merge([]string{primary, hedge, other})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(g.IDs) {
		t.Fatalf("merged %d cells, want %d", len(rep.Cells), len(g.IDs))
	}
	for _, id := range g.IDs {
		if !reflect.DeepEqual(rep.Cells[id.Index], fabricatedCell(id)) {
			t.Fatalf("merged cell %d diverges", id.Index)
		}
	}

	// Tamper with the hedge's copy of cell 2: the duplicate now disagrees
	// with the primary, which means the lanes came from diverging runs —
	// the merge must fail, not pick a winner.
	bad := fabricatedCell(g.IDs[2])
	bad.MinGap += 0.25
	buf, err := json.Marshal(g.Record(2, bad))
	if err != nil {
		t.Fatal(err)
	}
	var tampered []byte
	tampered = append(tampered, laneLine(t, g, 0)...)
	tampered = append(tampered, buf...)
	tampered = append(tampered, '\n')
	tampered = append(tampered, laneLine(t, g, 4)...)
	tampered = append(tampered, laneLine(t, g, 6)...)
	if err := os.WriteFile(hedge, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Merge([]string{primary, hedge, other}); err == nil ||
		!strings.Contains(err.Error(), "differs between") {
		t.Fatalf("diverging duplicate not rejected: %v", err)
	}
}

// appendLane writes cells through a fresh lane at path.
func appendLane(t *testing.T, g Grid, path string, cells map[int]MatrixCell) {
	t.Helper()
	lane, _, err := g.OpenLane(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.IDs {
		if c, ok := cells[id.Index]; ok {
			if _, err := lane.Append(id.Index, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lane.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeNaNDuplicateCell: two lanes that both hold the same cell with
// a NaN gap error carry one record, not a divergence. Cells compare by
// their record encoding, where NaN equals NaN.
func TestMergeNaNDuplicateCell(t *testing.T) {
	g := fabricatedGrid()
	dir := t.TempDir()
	nan := fabricatedCell(g.IDs[0])
	nan.MeanGapErr = math.NaN()
	a := map[int]MatrixCell{0: nan}
	b := map[int]MatrixCell{0: nan}
	for _, id := range g.IDs[1:] {
		if id.Index < 4 {
			a[id.Index] = fabricatedCell(id)
		} else {
			b[id.Index] = fabricatedCell(id)
		}
	}
	pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	appendLane(t, g, pa, a)
	appendLane(t, g, pb, b)

	rep, err := g.Merge([]string{pa, pb})
	if err != nil {
		t.Fatalf("same NaN cell in two lanes rejected: %v", err)
	}
	if !math.IsNaN(rep.Cells[0].MeanGapErr) || rep.Cells[1].MinGap != fabricatedCell(g.IDs[1]).MinGap {
		t.Fatalf("merged cells altered: %+v, %+v", rep.Cells[0], rep.Cells[1])
	}
}

func TestSameCell(t *testing.T) {
	g := fabricatedGrid()
	base := fabricatedCell(g.IDs[2])
	nan := base
	nan.MeanGapErr = math.NaN()
	if !g.SameCell(base, base) || !g.SameCell(nan, nan) {
		t.Fatal("a cell differs from itself")
	}
	negZero := base
	negZero.MeanGapErr = math.Copysign(0, -1)
	zero := base
	zero.MeanGapErr = 0
	ulp := base
	ulp.MinGap = math.Nextafter(base.MinGap, math.Inf(1))
	traj := base
	traj.Result.TrueGaps = []float64{base.Result.TrueGaps[0], base.Result.TrueGaps[1] + 1e-12}
	for name, other := range map[string]MatrixCell{"NaN": nan, "ulp": ulp, "trajectory": traj} {
		if g.SameCell(base, other) {
			t.Fatalf("%s: divergent cells compare equal", name)
		}
	}
	if g.SameCell(zero, negZero) {
		t.Fatal("-0 and +0 compare equal")
	}
}

// TestFoldReportsLowestDivergence: Fold adds the cells dst lacks in grid
// order and stops at the lowest index whose two copies differ.
func TestFoldReportsLowestDivergence(t *testing.T) {
	g := fabricatedGrid()
	dst := map[int]MatrixCell{1: fabricatedCell(g.IDs[1]), 5: fabricatedCell(g.IDs[5])}
	src := map[int]MatrixCell{}
	for _, id := range g.IDs {
		src[id.Index] = fabricatedCell(id)
	}
	added, bad := g.Fold(dst, src)
	if bad != -1 || fmt.Sprint(added) != "[0 2 3 4 6 7]" || len(dst) != 8 {
		t.Fatalf("Fold = %v, %d; dst holds %d", added, bad, len(dst))
	}
	for _, i := range []int{6, 3} {
		c := src[i]
		c.Steps++
		src[i] = c
	}
	if _, bad := g.Fold(dst, src); bad != 3 {
		t.Fatalf("divergence reported at %d, want the lowest (3)", bad)
	}
}

// TestLaneResumeRepairsAndDedups: a resumed lane returns the complete
// records, cuts a torn final line off, skips indices it holds, and
// leaves exactly one line per record.
func TestLaneResumeRepairsAndDedups(t *testing.T) {
	g := fabricatedGrid()
	path := filepath.Join(t.TempDir(), "lane.jsonl")
	torn := laneLine(t, g, 2)
	body := append(append(laneLine(t, g, 0), laneLine(t, g, 1)...), torn[:len(torn)/2]...)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	lane, done, err := g.OpenLane(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("resumed %d cells, want 2", len(done))
	}
	if fresh, err := lane.Append(1, fabricatedCell(g.IDs[1])); err != nil || fresh {
		t.Fatalf("Append of a held index = %v, %v; want a skip", fresh, err)
	}
	if fresh, err := lane.Append(2, fabricatedCell(g.IDs[2])); err != nil || !fresh {
		t.Fatalf("Append of a new index = %v, %v", fresh, err)
	}
	if err := lane.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lane.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(laneLine(t, g, 0), laneLine(t, g, 1)...), laneLine(t, g, 2)...)
	if string(got) != string(want) {
		t.Fatalf("lane bytes after repair and append:\n%s\nwant:\n%s", got, want)
	}

	// A fresh open truncates: a new run never mixes with the old one.
	lane, done, err = g.OpenLane(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 0 || len(done) != 0 {
		t.Fatalf("fresh open left %d cells and a %v-byte file (%v)", len(done), st.Size(), err)
	}
}

// TestLaneWriteErrorSticks: after a failed write the lane takes no more
// records — a partial line may end it — and Close reports the failure.
func TestLaneWriteErrorSticks(t *testing.T) {
	g := fabricatedGrid()
	lane, _, err := g.OpenLane(filepath.Join(t.TempDir(), "lane.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.f.Close(); err != nil { // the next write fails
		t.Fatal(err)
	}
	_, first := lane.Append(0, fabricatedCell(g.IDs[0]))
	if first == nil {
		t.Fatal("write to a closed file succeeded")
	}
	if _, err := lane.Append(1, fabricatedCell(g.IDs[1])); err != first {
		t.Fatalf("second Append = %v, want the first error %v", err, first)
	}
	if err := lane.Close(); err == nil || !strings.Contains(err.Error(), "checkpoint write") {
		t.Fatalf("Close = %v, want the write error", err)
	}
}

// TestLaneConcurrentAppend: workers appending the same cells at once
// leave each record exactly once, each on a whole line.
func TestLaneConcurrentAppend(t *testing.T) {
	g := fabricatedGrid()
	path := filepath.Join(t.TempDir(), "lane.jsonl")
	lane, _, err := g.OpenLane(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	fresh := 0
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range g.IDs {
				ok, err := lane.Append(id.Index, fabricatedCell(id))
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					mu.Lock()
					fresh++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := lane.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	done, _, err := g.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != len(g.IDs) || len(done) != len(g.IDs) || len(splitLines(buf)) != len(g.IDs) {
		t.Fatalf("%d fresh appends, %d cells, %d lines; want %d of each", fresh, len(done), len(splitLines(buf)), len(g.IDs))
	}
}
