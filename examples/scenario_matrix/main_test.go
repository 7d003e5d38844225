package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	advp "repro"
	"repro/internal/eval"
)

// TestRun runs the grid with the Auto-PGD column at the micro preset:
// every scenario meets the four attacks and the three default defenses,
// and the progress observer reports each cell.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains micro victims; the non-short test job runs it")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, eval.Micro(), 0.2, true); err != nil {
		t.Fatal(err)
	}
	report := strings.TrimSpace(out.String())
	var cells int
	if _, err := fmt.Sscanf(report[strings.LastIndexByte(report, '\n')+1:], "%d cells in", &cells); err != nil {
		t.Fatalf("%v in:\n%s", err, report)
	}
	if want := len(advp.ScenarioNames()) * 4 * 3; cells != want {
		t.Errorf("%d cells, want %d", cells, want)
	}
	if !strings.Contains(report, "Auto-PGD") {
		t.Errorf("no Auto-PGD column in:\n%s", report)
	}
}
