package eval

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// shortMatrixConfig trims cell duration so the full grid stays cheap; the
// matrix tests certify grid plumbing and determinism, not safety numbers.
func shortMatrixConfig() MatrixConfig {
	return MatrixConfig{Duration: 1.2, DT: 0.1}
}

// runMatrix runs the grid under a background context, which never
// cancels, so any error is a test failure.
func runMatrix(t *testing.T, e *Env, cfg MatrixConfig) MatrixReport {
	t.Helper()
	rep, err := e.RunMatrixCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

var (
	matrixOnce sync.Once
	matrixRep  MatrixReport
)

// sharedMatrixReport runs the full default grid once (at GOMAXPROCS=4 so
// cells genuinely interleave) and shares it between the shape and
// determinism tests.
func sharedMatrixReport(t *testing.T) MatrixReport {
	t.Helper()
	e := sharedEnv(t)
	matrixOnce.Do(func() {
		old := runtime.GOMAXPROCS(4)
		matrixRep = runMatrix(t, e, shortMatrixConfig())
		runtime.GOMAXPROCS(old)
	})
	return matrixRep
}

func TestRunMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is compute-heavy; -short (the -race CI job) covers the runner via TestMatrixWorkerIsolation")
	}
	rep := sharedMatrixReport(t)

	nS, nA, nD := len(pipeline.Scenarios()), len(DefaultMatrixAttacks()), len(DefaultMatrixDefenses())
	if nS < 5 || nA < 3 || nD < 3 {
		t.Fatalf("axes too small: %d scenarios, %d attacks, %d defenses", nS, nA, nD)
	}
	want := nS * nA * nD
	if want < 45 {
		t.Fatalf("default grid %d cells, want >= 45", want)
	}
	if len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}

	// Expansion is scenario-major, then attack, then defense.
	i := 0
	for _, sc := range pipeline.Scenarios() {
		for _, at := range DefaultMatrixAttacks() {
			for _, df := range DefaultMatrixDefenses() {
				c := rep.Cells[i]
				if c.Scenario != sc.Name || c.Attack != at.Name || c.Defense != df.Name {
					t.Fatalf("cell %d is %s/%s/%s, want %s/%s/%s",
						i, c.Scenario, c.Attack, c.Defense, sc.Name, at.Name, df.Name)
				}
				i++
			}
		}
	}

	for _, c := range rep.Cells {
		if c.Steps <= 0 {
			t.Fatalf("cell %s/%s/%s ran no steps", c.Scenario, c.Attack, c.Defense)
		}
		if c.MeanGapErr < 0 {
			t.Fatalf("negative mean gap error in %s/%s/%s", c.Scenario, c.Attack, c.Defense)
		}
		if !c.Collision && c.MinGap <= 0 {
			t.Fatalf("non-collision cell %s/%s/%s has min gap %v", c.Scenario, c.Attack, c.Defense, c.MinGap)
		}
	}
}

func TestRunMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is compute-heavy; -short (the -race CI job) covers determinism via TestRunMatrixCustomAxes")
	}
	e := sharedEnv(t)

	// Same preset, repeated runs, different GOMAXPROCS: the grid must be
	// bit-identical — cells, text report and CSV alike. This guards the
	// per-cell seed derivation against wall-clock or scheduling leakage.
	a := sharedMatrixReport(t) // computed at GOMAXPROCS=4
	old := runtime.GOMAXPROCS(1)
	b := runMatrix(t, e, shortMatrixConfig())
	runtime.GOMAXPROCS(old)

	if len(a.Cells) < 45 {
		t.Fatalf("grid too small for the acceptance bar: %d cells", len(a.Cells))
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		for i := range a.Cells {
			if !reflect.DeepEqual(a.Cells[i], b.Cells[i]) {
				t.Fatalf("cell %d (%s/%s/%s) differs between runs",
					i, a.Cells[i].Scenario, a.Cells[i].Attack, a.Cells[i].Defense)
			}
		}
		t.Fatal("matrix runs differ")
	}
	if a.Format() != b.Format() || a.CSV() != b.CSV() || a.Markdown() != b.Markdown() {
		t.Fatal("formatted reports differ between identical runs")
	}
}

func TestRunMatrixCustomAxes(t *testing.T) {
	e := sharedEnv(t)
	sc, _ := pipeline.FindScenario("gentle-brake")
	cfg := MatrixConfig{
		Scenarios: []pipeline.Scenario{sc},
		Attacks:   DefaultMatrixAttacks()[:2],  // None, CAP
		Defenses:  DefaultMatrixDefenses()[:2], // None, Median
		Duration:  1, DT: 0.1,
		BaseSeed: 999,
	}
	rep := runMatrix(t, e, cfg)
	if len(rep.Cells) != 4 {
		t.Fatalf("custom axes gave %d cells, want 4", len(rep.Cells))
	}
	if rep.Cells[0].Seed != 999 {
		t.Fatalf("BaseSeed not honoured: %d", rep.Cells[0].Seed)
	}
	if rep.Cells[1].Seed != 999+cellSeedStride {
		t.Fatalf("cell seeds must stride deterministically: %d", rep.Cells[1].Seed)
	}
	// Cheap determinism check that also runs in -short mode; the full-grid
	// GOMAXPROCS sweep lives in TestRunMatrixDeterministic.
	if again := runMatrix(t, e, cfg); !reflect.DeepEqual(rep.Cells, again.Cells) {
		t.Fatal("repeated custom-axis runs must be bit-identical")
	}
}

func TestMatrixReportFormats(t *testing.T) {
	rep := MatrixReport{Preset: "micro", Cells: []MatrixCell{
		{Scenario: "hard-brake", Attack: "CAP-Attack", Defense: "None",
			Seed: 1, Collision: true, MinGap: 0, MinTTC: 0.4, MeanGapErr: 11.5, Steps: 12},
		{Scenario: "hard-brake", Attack: "CAP-Attack", Defense: "Median Blurring",
			Seed: 2, Collision: false, MinGap: 7.25, MinTTC: 999999, MeanGapErr: 2.5, Steps: 20},
	}}

	txt := rep.Format()
	if !strings.Contains(txt, "SCENARIO MATRIX") || !strings.Contains(txt, "hard-brake") {
		t.Fatalf("text format missing content:\n%s", txt)
	}
	if !strings.Contains(txt, "CAP-Attack   + Median Blurring   0/1") {
		t.Fatalf("collision tally missing:\n%s", txt)
	}
	if !strings.Contains(txt, "999.00") {
		t.Fatalf("infinite TTC must be capped for display:\n%s", txt)
	}

	md := rep.Markdown()
	if !strings.HasPrefix(md, "| Scenario |") || strings.Count(md, "\n") != 4 {
		t.Fatalf("markdown shape wrong:\n%s", md)
	}

	csv := rep.CSV()
	if !strings.HasPrefix(csv, "scenario,attack,defense,") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "hard-brake,CAP-Attack,Median Blurring,2,20,7.25,") {
		t.Fatalf("csv row wrong:\n%s", csv)
	}
}

// TestMatrixWorkerIsolation runs a grid wide enough to multiplex several
// cells per worker; under -race this certifies that per-worker regressor
// clones, per-cell attackers and per-cell defenses share no buffers.
func TestMatrixWorkerIsolation(t *testing.T) {
	e := sharedEnv(t)
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	sc, _ := pipeline.FindScenario("hard-brake")
	cfg := MatrixConfig{
		Scenarios: []pipeline.Scenario{sc},
		Duration:  0.8, DT: 0.1,
	}
	rep := runMatrix(t, e, cfg)
	if len(rep.Cells) != len(DefaultMatrixAttacks())*len(DefaultMatrixDefenses()) {
		t.Fatalf("unexpected cell count %d", len(rep.Cells))
	}
}
