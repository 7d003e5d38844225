package eval

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pipeline"
)

// shortSweepConfig is a two-scenario grid with trimmed cell duration: big
// enough to span shards and exercise resume, cheap enough for -race.
func shortSweepConfig(t *testing.T, jsonl string) SweepConfig {
	t.Helper()
	gentle, ok := pipeline.FindScenario("gentle-brake")
	if !ok {
		t.Fatal("gentle-brake missing from registry")
	}
	cruise, ok := pipeline.FindScenario("highway-cruise")
	if !ok {
		t.Fatal("highway-cruise missing from registry")
	}
	return SweepConfig{
		Matrix: MatrixConfig{
			Scenarios: []pipeline.Scenario{gentle, cruise},
			Attacks:   DefaultMatrixAttacks()[:2],  // None, CAP
			Defenses:  DefaultMatrixDefenses()[:2], // None, Median
			Duration:  0.8, DT: 0.1,
			BaseSeed: 4242,
		},
		JSONL:  jsonl,
		Resume: true,
	}
}

// TestSweepMatchesMatrix: a single-shard sweep must produce exactly the
// RunMatrix cells (same seeds, same order, bit-identical metrics).
func TestSweepMatchesMatrix(t *testing.T) {
	e := sharedEnv(t)
	cfg := shortSweepConfig(t, "")
	rep, err := e.RunSweepCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runMatrix(t, e, cfg.Matrix)
	if rep.Total != len(want.Cells) || len(rep.Cells) != len(want.Cells) {
		t.Fatalf("sweep %d/%d cells vs matrix %d", len(rep.Cells), rep.Total, len(want.Cells))
	}
	if !reflect.DeepEqual(rep.Cells, want.Cells) {
		t.Fatal("single-shard sweep diverges from RunMatrix")
	}
	if rep.Matrix().CSV() != want.CSV() {
		t.Fatal("sweep CSV adapter diverges from matrix CSV")
	}
}

// TestSweepShardsPartitionGrid: the shards of an N-way sweep are disjoint,
// cover the grid, and agree cell-for-cell with the full matrix.
func TestSweepShardsPartitionGrid(t *testing.T) {
	e := sharedEnv(t)
	cfg := shortSweepConfig(t, "")
	want := runMatrix(t, e, cfg.Matrix)

	const shards = 3
	seen := map[int]MatrixCell{}
	for s := 0; s < shards; s++ {
		c := cfg
		c.Shard, c.NumShards = s, shards
		rep, err := e.RunSweepCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		for k, idx := range rep.Indices {
			if idx%shards != s {
				t.Fatalf("shard %d got cell %d", s, idx)
			}
			if _, dup := seen[idx]; dup {
				t.Fatalf("cell %d assigned twice", idx)
			}
			seen[idx] = rep.Cells[k]
		}
	}
	if len(seen) != len(want.Cells) {
		t.Fatalf("shards cover %d cells, grid has %d", len(seen), len(want.Cells))
	}
	for idx, cell := range seen {
		if !reflect.DeepEqual(cell, want.Cells[idx]) {
			t.Fatalf("shard cell %d diverges from matrix", idx)
		}
	}
}

// TestSweepResume is the ISSUE's acceptance scenario: run a partial shard,
// "interrupt" it, then resume against the same checkpoint — the resumed
// run must execute only the missing cells and the assembled report must be
// bit-identical to an uninterrupted run. Runs at GOMAXPROCS=4 so the
// runner, the lane appends and the per-worker clones genuinely interleave
// (the -race CI job leans on this test).
func TestSweepResume(t *testing.T) {
	e := sharedEnv(t)
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	cfg := shortSweepConfig(t, full)

	uninterrupted, err := e.RunSweepCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uninterrupted.Resumed != 0 {
		t.Fatalf("fresh run resumed %d cells", uninterrupted.Resumed)
	}

	// Simulate the interrupt: keep only the first 3 checkpoint lines, plus
	// a truncated tail record (a write cut off mid-line).
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(raw)
	if len(lines) != len(uninterrupted.Cells) {
		t.Fatalf("checkpoint has %d lines, want %d", len(lines), len(uninterrupted.Cells))
	}
	part := filepath.Join(dir, "part.jsonl")
	partial := append([]byte{}, lines[0]...)
	partial = append(partial, '\n')
	for _, l := range lines[1:3] {
		partial = append(partial, l...)
		partial = append(partial, '\n')
	}
	partial = append(partial, lines[3][:len(lines[3])/2]...) // torn write, no newline
	if err := os.WriteFile(part, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	resumedCfg := cfg
	resumedCfg.JSONL = part
	resumed, err := e.RunSweepCtx(context.Background(), resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 3 {
		t.Fatalf("resumed %d cells, want 3", resumed.Resumed)
	}
	if !reflect.DeepEqual(resumed.Cells, uninterrupted.Cells) {
		t.Fatal("resumed sweep diverges from uninterrupted run")
	}
	if !reflect.DeepEqual(resumed.Indices, uninterrupted.Indices) {
		t.Fatal("resumed sweep index order diverges")
	}

	// The checkpoint must now be complete: resuming again runs nothing.
	again, err := e.RunSweepCtx(context.Background(), resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(uninterrupted.Cells) {
		t.Fatalf("second resume re-ran cells: resumed %d of %d", again.Resumed, len(uninterrupted.Cells))
	}
	if !reflect.DeepEqual(again.Cells, uninterrupted.Cells) {
		t.Fatal("fully-resumed sweep diverges")
	}
}

// TestSweepChecksStaleCheckpoint: a checkpoint from a different grid
// (wrong seed) must fail loudly, not merge silently.
func TestSweepChecksStaleCheckpoint(t *testing.T) {
	e := sharedEnv(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "stale.jsonl")
	cfg := shortSweepConfig(t, path)

	rep, err := e.RunSweepCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep

	stale := cfg
	stale.Matrix.BaseSeed = 999999 // different grid seeds
	if _, err := e.RunSweepCtx(context.Background(), stale); err == nil {
		t.Fatal("stale checkpoint must be rejected")
	}

	// Same seeds but a different run configuration (duration/dt) would
	// silently merge incompatible trajectories; it must be rejected too.
	otherDur := cfg
	otherDur.Matrix.Duration = 5
	if _, err := e.RunSweepCtx(context.Background(), otherDur); err == nil {
		t.Fatal("checkpoint from a different duration must be rejected")
	}

	// An out-of-grid index is rejected too.
	bad := SweepRecord{Index: 10_000, Seed: 1}
	buf, _ := json.Marshal(bad)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunSweepCtx(context.Background(), cfg); err == nil {
		t.Fatal("out-of-range cell index must be rejected")
	}
}

// TestSweepShardValidation rejects malformed shard specs.
func TestSweepShardValidation(t *testing.T) {
	e := sharedEnv(t)
	cfg := shortSweepConfig(t, "")
	cfg.Shard, cfg.NumShards = 3, 3
	if _, err := e.RunSweepCtx(context.Background(), cfg); err == nil {
		t.Fatal("shard index == NumShards must be rejected")
	}
	cfg.Shard, cfg.NumShards = -1, 2
	if _, err := e.RunSweepCtx(context.Background(), cfg); err == nil {
		t.Fatal("negative shard must be rejected")
	}
}

// TestJFloatRoundTrip pins the infinity-safe float encoding.
func TestJFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -3.25, math.Inf(1), math.Inf(-1)} {
		buf, err := json.Marshal(JFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		var back JFloat
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if float64(back) != v {
			t.Fatalf("round trip %v -> %s -> %v", v, buf, float64(back))
		}
	}
	buf, _ := json.Marshal(JFloat(math.NaN()))
	var back JFloat
	if err := json.Unmarshal(buf, &back); err != nil || !math.IsNaN(float64(back)) {
		t.Fatalf("NaN round trip: %s err %v", buf, err)
	}
}

// splitLines splits on '\n', dropping a trailing empty slice.
func splitLines(b []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			lines = append(lines, b[start:i])
			start = i + 1
		}
	}
	if start < len(b) {
		lines = append(lines, b[start:])
	}
	return lines
}
