package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/exp"
)

// e2eMicroPreset is the tiny preset of the real-Experiment e2e tests:
// they certify the serving pipeline end to end (validate → train →
// stream → cache), not experiment quality.
func e2eMicroPreset() eval.Preset {
	return eval.Preset{
		Name:      "micro",
		SignTrain: 40, SignTest: 12,
		DriveTrain: 50, DrivePerBucket: 3,
		DetEpochs: 4, RegEpochs: 4,
		AdvEpochs: 1, ContrastiveEpochs: 1,
		DiffusionSteps: 10, DiffPIRSteps: 3,
		APGDSteps: 4, SimBASteps: 20, RP2Iters: 4,
		Seed: 5,
	}
}

// microFactory builds real Experiments over the micro preset, ignoring
// the requested preset name (specs with an empty preset address any
// environment).
func microFactory(ctx context.Context, _ string, logf func(string, ...any)) (Runner, error) {
	return exp.New(ctx, exp.WithPreset(e2eMicroPreset()), exp.WithLogger(logf), exp.WithWorkers(1))
}

// microMatrixSpec is a 2-cell grid: enough to observe a real event
// sequence without noticeable runtime.
const microMatrixSpec = `{"kind":"matrix","matrix":{"scenarios":["highway-cruise"],"attacks":["None"],"defenses":["None","Median Blurring"],"duration":0.5,"dt":0.1,"base_seed":11}}`

// assertWellFormedStream checks the JSONL grammar of one /run response:
// optional log lines anywhere, exactly one run-start before any cell
// event, cell-start/cell-done pairs, one run-done, then the terminal
// cache marker followed by the result payload.
func assertWellFormedStream(t *testing.T, lines [][]byte, wantCells int, wantHit bool) []byte {
	t.Helper()
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines", len(lines))
	}
	var runStarts, runDones, cellStarts, cellDones int
	terminalAt := -1
	for i, line := range lines[:len(lines)-1] {
		var ev WireEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		switch ev.Event {
		case "run-start":
			if cellStarts > 0 || runDones > 0 {
				t.Fatalf("line %d: run-start after cell/run-done events", i)
			}
			runStarts++
		case "cell-start":
			if runStarts == 0 {
				t.Fatalf("line %d: cell-start before run-start", i)
			}
			if ev.Cell == nil {
				t.Fatalf("line %d: cell-start without a cell identity", i)
			}
			cellStarts++
		case "cell-done":
			var rec eval.SweepRecord
			if ev.Cell == nil || json.Unmarshal(ev.Record, &rec) != nil || rec.Index != ev.Cell.Index {
				t.Fatalf("line %d: cell-done lacks cell/record: %s", i, line)
			}
			cellDones++
		case "run-done":
			if ev.Err != "" {
				t.Fatalf("run failed: %s", ev.Err)
			}
			runDones++
		case "log":
			// Free-position progress lines.
		case "cache":
			if i != len(lines)-2 {
				t.Fatalf("cache marker at line %d, want second-to-last", i)
			}
			if ev.Hit != wantHit {
				t.Fatalf("cache hit=%v, want %v", ev.Hit, wantHit)
			}
			terminalAt = i
		default:
			t.Fatalf("line %d: unknown event %q", i, ev.Event)
		}
	}
	if terminalAt == -1 {
		t.Fatal("stream has no cache marker")
	}
	if !wantHit {
		if runStarts != 1 || runDones != 1 {
			t.Fatalf("run bracketing %d/%d, want 1/1", runStarts, runDones)
		}
		if cellStarts != wantCells || cellDones != wantCells {
			t.Fatalf("cells %d/%d, want %d", cellStarts, cellDones, wantCells)
		}
	} else if runStarts+runDones+cellStarts+cellDones != 0 {
		t.Fatal("cache hit replayed run events")
	}

	var payload ResultPayload
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &payload); err != nil {
		t.Fatalf("payload %q: %v", last, err)
	}
	if payload.Event != "result" || payload.Key == "" || payload.Text == "" {
		t.Fatalf("malformed payload: %s", last)
	}
	return last
}

// TestServeE2EMicroStream drives the full serving pipeline with real
// victims (micro preset): stream grammar, cache round-trip, byte
// identity, and the dedup counters — fast enough for -short.
func TestServeE2EMicroStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := New(ctx, Config{NewRunner: microFactory})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	first := postRun(t, hs.URL, microMatrixSpec)
	p1 := assertWellFormedStream(t, first, 2, false)
	second := postRun(t, hs.URL, microMatrixSpec)
	p2 := assertWellFormedStream(t, second, 2, true)
	if !bytes.Equal(p1, p2) {
		t.Fatalf("cached payload differs:\n%s\n%s", p1, p2)
	}
	var payload ResultPayload
	if err := json.Unmarshal(p1, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.CSV == "" || !strings.Contains(payload.Text, "highway-cruise") {
		t.Fatalf("matrix payload lacks grid content: %s", p1)
	}
	if computes, hits, _ := srv.Stats(); computes != 1 || hits != 1 {
		t.Fatalf("computes=%d hits=%d, want 1/1", computes, hits)
	}

	// Parallel identical submissions after the cache is warm all hit.
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := hs.Client().Post(hs.URL+"/run", "application/json", strings.NewReader(microMatrixSpec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			lines := readLines(t, resp.Body)
			if !bytes.Equal(lines[len(lines)-1], p1) {
				t.Error("parallel hit returned different bytes")
			}
		}()
	}
	wg.Wait()
	if computes, hits, _ := srv.Stats(); computes != 1 || hits != 4 {
		t.Fatalf("computes=%d hits=%d, want 1/4", computes, hits)
	}
}

// TestServeE2EQuickCommittedSpec is the full-fat harness of the ISSUE:
// a daemon on a loopback port under the real quick preset, the committed
// specs/quick_matrix.json submitted twice (second response a byte-
// identical cache hit), then a daemon restart over the same artifact
// store proving the rebuilt environment warm-starts with zero training
// and reproduces the payload bit for bit.
func TestServeE2EQuickCommittedSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the quick preset (~1 min)")
	}
	specJSON, err := os.ReadFile(filepath.Join("..", "..", "specs", "quick_matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	artifacts := t.TempDir()
	var logMu sync.Mutex
	var coldLog, warmLog strings.Builder

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv1 := New(ctx, Config{
		ArtifactDir: artifacts,
		Logf: func(format string, a ...any) {
			logMu.Lock()
			fmt.Fprintf(&coldLog, format+"\n", a...)
			logMu.Unlock()
		},
	})
	hs1 := httptest.NewServer(srv1.Handler())
	defer hs1.Close()

	// The spec addresses a 3-scenario grid over the default axes: 27 cells.
	spec, err := exp.ParseSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := spec.CellIDs()
	if err != nil {
		t.Fatal(err)
	}

	first := postRun(t, hs1.URL, string(specJSON))
	p1 := assertWellFormedStream(t, first, len(ids), false)
	second := postRun(t, hs1.URL, string(specJSON))
	p2 := assertWellFormedStream(t, second, len(ids), true)
	if !bytes.Equal(p1, p2) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", p1, p2)
	}
	if computes, hits, _ := srv1.Stats(); computes != 1 || hits != 1 {
		t.Fatalf("server 1: computes=%d hits=%d", computes, hits)
	}
	// The cold build trained (training epochs stream as log events to
	// the first subscriber).
	trained := false
	for _, line := range first {
		var ev WireEvent
		if json.Unmarshal(line, &ev) == nil && ev.Event == "log" && strings.Contains(ev.Msg, "epoch") {
			trained = true
			break
		}
	}
	if !trained {
		t.Fatal("cold server streamed no training epochs")
	}

	// Restart: a fresh daemon (empty result cache) over the same artifact
	// directory must warm-start the environment — zero training — and the
	// recomputed result must be bit-identical to the first daemon's.
	srv2 := New(ctx, Config{
		ArtifactDir: artifacts,
		Logf: func(format string, a ...any) {
			logMu.Lock()
			fmt.Fprintf(&warmLog, format+"\n", a...)
			logMu.Unlock()
		},
	})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	third := postRun(t, hs2.URL, string(specJSON))
	p3 := assertWellFormedStream(t, third, len(ids), false) // fresh cache: a compute, not a hit
	if !bytes.Equal(p1, p3) {
		t.Fatalf("warm-started compute differs from the original:\n%s\n%s", p1, p3)
	}
	warmStarted := 0
	for _, line := range third {
		var ev WireEvent
		if json.Unmarshal(line, &ev) != nil || ev.Event != "log" {
			continue
		}
		if strings.Contains(ev.Msg, "epoch") {
			t.Fatalf("warm-started server trained anyway: %s", ev.Msg)
		}
		if strings.Contains(ev.Msg, "warm start from artifact") {
			warmStarted++
		}
	}
	if warmStarted != 2 {
		t.Fatalf("expected detector+regressor warm starts, saw %d", warmStarted)
	}
}
