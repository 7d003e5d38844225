package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestRun runs shard 0 of 2 at the micro preset into a fresh checkpoint,
// then again: the rerun must resume every cell from the checkpoint and
// run none. A merge reads the grid identity from the spec, which means
// the quick preset, so it must reject the micro shard as stale.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains micro victims; the non-short test job runs it")
	}
	ctx := context.Background()
	jsonl := filepath.Join(t.TempDir(), "shard0.jsonl")
	for _, want := range [][2]int{{36, 0}, {0, 36}} {
		var out bytes.Buffer
		if err := run(ctx, &out, eval.Micro(), 0.2, 0, 2, jsonl, false, nil); err != nil {
			t.Fatal(err)
		}
		report := out.String()
		var ran, resumed int
		i := strings.Index(report, "shard 0/2: ")
		if i < 0 {
			t.Fatalf("no shard summary in:\n%s", report)
		}
		if _, err := fmt.Sscanf(report[i:], "shard 0/2: %d cells run, %d resumed", &ran, &resumed); err != nil {
			t.Fatalf("%v in:\n%s", err, report)
		}
		if ran != want[0] || resumed != want[1] {
			t.Errorf("%d cells run, %d resumed; want %d, %d", ran, resumed, want[0], want[1])
		}
	}

	var out bytes.Buffer
	err := run(ctx, &out, eval.Micro(), 0.2, 0, 2, "", true, []string{jsonl})
	if err == nil || !strings.Contains(err.Error(), "expected preset=quick") {
		t.Fatalf("merging a micro shard under the quick grid: %v", err)
	}
}
