package eval

// Bit-identity pins: the engine entrypoints (RunTableI, RunFig2,
// RunMatrixCtx, RunSweepCtx) are compared byte-for-byte against goldens
// generated by the pre-redesign runners (cmd/gengolden). Any redesign of
// the experiment surface — registries, spec routing, observer plumbing —
// must leave these outputs untouched.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

func readGolden(t *testing.T, name string) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with go run ./cmd/gengolden): %v", name, err)
	}
	return string(buf)
}

// goldenMatrixConfig matches cmd/gengolden exactly.
func goldenMatrixConfig(t *testing.T) MatrixConfig {
	t.Helper()
	gentle, ok := pipeline.FindScenario("gentle-brake")
	if !ok {
		t.Fatal("gentle-brake missing from registry")
	}
	cruise, ok := pipeline.FindScenario("highway-cruise")
	if !ok {
		t.Fatal("highway-cruise missing from registry")
	}
	return MatrixConfig{
		Scenarios: []pipeline.Scenario{gentle, cruise},
		Duration:  0.8, DT: 0.1,
		BaseSeed: 4242,
	}
}

var (
	goldenMatrixOnce sync.Once
	goldenMatrixRep  MatrixReport
)

// goldenMatrix runs the golden grid once and shares it across the pin
// tests (matrix golden, sweep golden, merge round-trip).
func goldenMatrix(t *testing.T) MatrixReport {
	e := sharedEnv(t)
	goldenMatrixOnce.Do(func() {
		goldenMatrixRep = runMatrix(t, e, goldenMatrixConfig(t))
	})
	return goldenMatrixRep
}

// skipShort gates the compute-heavy byte pins out of the -race -short CI
// job; the full test job runs them.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("byte-pin goldens are compute-heavy; the non-short job runs them")
	}
}

func TestGoldenTableI(t *testing.T) {
	skipShort(t)
	if got, want := sharedEnv(t).RunTableI().Format(), readGolden(t, "golden_table1.txt"); got != want {
		t.Fatalf("RunTableI diverged from its pre-redesign golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenFig2(t *testing.T) {
	skipShort(t)
	if got, want := sharedEnv(t).RunFig2().Format(), readGolden(t, "golden_fig2.txt"); got != want {
		t.Fatalf("RunFig2 diverged from its pre-redesign golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenMatrixCSV(t *testing.T) {
	skipShort(t)
	if got, want := goldenMatrix(t).CSV(), readGolden(t, "golden_matrix.csv"); got != want {
		t.Fatalf("RunMatrixCtx diverged from its pre-redesign golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenSweepCSV(t *testing.T) {
	skipShort(t)
	e := sharedEnv(t)
	rep, err := e.RunSweepCtx(context.Background(), SweepConfig{Matrix: goldenMatrixConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Matrix().CSV(), readGolden(t, "golden_matrix.csv"); got != want {
		t.Fatalf("single-shard RunSweepCtx diverged from the pre-redesign matrix golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeSweepsRoundTrip is the multi-machine scale step: two shards run
// separately, their JSONL files merged, and the merged report must equal
// the unsharded grid bit-for-bit.
func TestMergeSweepsRoundTrip(t *testing.T) {
	e := sharedEnv(t)
	mcfg := goldenMatrixConfig(t)
	if testing.Short() {
		// Keep the round trip under -race, on a DiffPIR-free grid.
		mcfg.Attacks = DefaultMatrixAttacks()[:2]
		mcfg.Defenses = DefaultMatrixDefenses()[:2]
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")}
	for s, p := range paths {
		cfg := SweepConfig{Matrix: mcfg, Shard: s, NumShards: len(paths), JSONL: p}
		if _, err := e.RunSweepCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	g := NewGrid(mcfg, e.Preset)
	merged, err := g.Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		if !reflect.DeepEqual(merged.Cells, runMatrix(t, e, mcfg).Cells) {
			t.Fatal("merged shards diverge from the unsharded matrix")
		}
	} else {
		want := goldenMatrix(t)
		if !reflect.DeepEqual(merged.Cells, want.Cells) {
			t.Fatal("merged shards diverge from the unsharded matrix")
		}
		if got := merged.CSV(); got != readGolden(t, "golden_matrix.csv") {
			t.Fatal("merged CSV diverges from the pre-redesign golden")
		}
	}

	// Coverage verification: dropping a shard must fail loudly.
	if _, err := g.Merge(paths[:1]); err == nil {
		t.Fatal("merge of an incomplete shard set must be rejected")
	}
	// Grid verification: merging under the wrong identity must fail.
	stale := g
	stale.IDs = CellIDs(MatrixConfig{Scenarios: mcfg.Scenarios, Duration: mcfg.Duration, DT: mcfg.DT, BaseSeed: 999}, e.Preset.Seed)
	if _, err := stale.Merge(paths); err == nil {
		t.Fatal("merge against a mismatching grid identity must be rejected")
	}
}

func TestCellIDsMatchExecutedGrid(t *testing.T) {
	skipShort(t)
	e := sharedEnv(t)
	cfg := goldenMatrixConfig(t)
	ids := CellIDs(cfg, e.Preset.Seed)
	rep := goldenMatrix(t)
	if len(ids) != len(rep.Cells) {
		t.Fatalf("CellIDs %d vs executed %d", len(ids), len(rep.Cells))
	}
	for i, id := range ids {
		c := rep.Cells[i]
		if id.Index != i || id.Seed != c.Seed || id.Scenario != c.Scenario || id.Attack != c.Attack || id.Defense != c.Defense {
			t.Fatalf("CellIDs[%d]=%+v diverges from executed cell %+v", i, id, c)
		}
	}
}

// TestMatrixCancellation: cancelling mid-run must stop dispatching
// promptly and surface the context error.
func TestMatrixCancellation(t *testing.T) {
	e := sharedEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := goldenMatrixConfig(t)
	// DiffPIR-free axes: the cancellation test certifies dispatch, not
	// heavy defenses, and runs under -race.
	cfg.Attacks = DefaultMatrixAttacks()[:2]
	cfg.Defenses = DefaultMatrixDefenses()[:2]
	var events []Event
	var mu sync.Mutex
	cfg.Observer = ObserverFunc(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		if ev.Kind == EventCellDone {
			cancel()
		}
	})
	if _, err := e.RunMatrixCtx(ctx, cfg); err != context.Canceled {
		t.Fatalf("cancelled matrix returned %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	total := len(CellIDs(cfg, e.Preset.Seed))
	nDone := 0
	for _, ev := range events {
		if ev.Kind == EventCellDone {
			nDone++
		}
	}
	if nDone >= total {
		t.Fatalf("cancellation ran the whole %d-cell grid", total)
	}
	last := events[len(events)-1]
	if last.Kind != EventRunDone || last.Err != context.Canceled {
		t.Fatalf("last event %v err %v, want run-done with context.Canceled", last.Kind, last.Err)
	}
}

// TestSweepCancellationLeavesResumableCheckpoint is the acceptance
// scenario: cancel a sweep mid-run, then -resume completes exactly the
// missing cells and the result matches an uninterrupted run.
func TestSweepCancellationLeavesResumableCheckpoint(t *testing.T) {
	e := sharedEnv(t)
	dir := t.TempDir()
	mcfg := goldenMatrixConfig(t)
	// DiffPIR-free axes keep the three runs (full, cancelled, resumed)
	// cheap enough for the -race job.
	mcfg.Attacks = DefaultMatrixAttacks()[:2]
	mcfg.Defenses = DefaultMatrixDefenses()[:2]

	full, err := e.RunSweepCtx(context.Background(), SweepConfig{Matrix: mcfg})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cancelled.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ccfg := SweepConfig{Matrix: mcfg, JSONL: path, Resume: true}
	ccfg.Matrix.Observer = ObserverFunc(func(ev Event) {
		if ev.Kind == EventCellDone && ev.Done >= 2 {
			cancel()
		}
	})
	if _, err := e.RunSweepCtx(ctx, ccfg); err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}

	rcfg := SweepConfig{Matrix: mcfg, JSONL: path, Resume: true}
	resumed, err := e.RunSweepCtx(context.Background(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed < 2 {
		t.Fatalf("resume recovered %d cells from the cancelled run, want >= 2", resumed.Resumed)
	}
	if resumed.Resumed >= len(full.Cells) {
		t.Fatal("cancelled run completed the whole grid; cancellation did not stop dispatch")
	}
	if !reflect.DeepEqual(resumed.Cells, full.Cells) {
		t.Fatal("resumed-after-cancel sweep diverges from the uninterrupted run")
	}
}

// TestObserverEventStream checks the event protocol on a successful run:
// one RunStart, matched cell start/done pairs, one terminal RunDone with
// a nil error, and Done counts reaching the cell total.
func TestObserverEventStream(t *testing.T) {
	e := sharedEnv(t)
	cfg := MatrixConfig{
		Scenarios: goldenMatrixConfig(t).Scenarios[:1],
		Attacks:   DefaultMatrixAttacks()[:2],
		Defenses:  DefaultMatrixDefenses()[:2],
		Duration:  0.5, DT: 0.1, BaseSeed: 31,
	}
	var mu sync.Mutex
	var events []Event
	cfg.Observer = ObserverFunc(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	rep, err := e.RunMatrixCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if events[0].Kind != EventRunStart || events[0].Total != len(rep.Cells) {
		t.Fatalf("first event %+v, want run-start with total %d", events[0], len(rep.Cells))
	}
	last := events[len(events)-1]
	if last.Kind != EventRunDone || last.Err != nil {
		t.Fatalf("last event %+v, want clean run-done", last)
	}
	starts, dones, maxDone := 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventCellStart:
			starts++
		case EventCellDone:
			dones++
			if ev.Done > maxDone {
				maxDone = ev.Done
			}
			if ev.Result == nil || ev.Result.Scenario != ev.Cell.Scenario {
				t.Fatalf("cell-done result mismatch: %+v", ev)
			}
		}
	}
	if starts != len(rep.Cells) || dones != len(rep.Cells) || maxDone != len(rep.Cells) {
		t.Fatalf("starts=%d dones=%d maxDone=%d, want all %d", starts, dones, maxDone, len(rep.Cells))
	}
}
