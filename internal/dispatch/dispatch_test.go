package dispatch

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// The dispatcher's whole contract is one sentence: whatever faults the
// fleet throws, the merged result is byte-identical to an unsharded run.
// These tests drive each fault class — crash, hang, torn tail, duplicate
// delivery, dial failure — through deterministic fake transports and
// assert exactly that, plus the recovery bookkeeping (no recomputation
// of checkpointed cells, retry/hedge/quarantine counters).

// testSpec is the grid under dispatch: 2 scenarios × 2 attacks × 2
// defenses = 8 cells, quick preset, explicit stamp values.
func testSpec() exp.Spec {
	return exp.Spec{
		Kind:   exp.KindSweep,
		Preset: "quick",
		Matrix: &exp.MatrixSpec{
			Scenarios: []string{"gentle-brake", "hard-brake"},
			Attacks:   []string{"None", "FGSM"},
			Defenses:  []string{"None", "Median Blurring"},
			Duration:  1.0, DT: 0.1, BaseSeed: 909090,
		},
	}
}

// fakeCell derives a deterministic result from a cell identity alone —
// the pure function a perfectly deterministic worker computes. Index 2
// carries +Inf TTC so the infinity-safe encoding stays on the path, and
// index 4 a NaN gap error, so every duplicate of it (hedge, replica,
// redelivery) must compare equal by its record, not by float equality.
func fakeCell(id eval.CellID) eval.MatrixCell {
	ttc := 1.5 + float64(id.Index)
	if id.Index == 2 {
		ttc = math.Inf(1)
	}
	gapErr := 0.125 * float64(id.Index)
	if id.Index == 4 {
		gapErr = math.NaN()
	}
	return eval.MatrixCell{
		Scenario: id.Scenario, Attack: id.Attack, Defense: id.Defense, Seed: id.Seed,
		Collision: id.Index%3 == 0,
		MinGap:    0.5 + float64(id.Index), MinTTC: ttc,
		MeanGapErr: gapErr, Steps: 10 + id.Index,
		Result: sim.Result{
			Times:    []float64{0, 0.1},
			TrueGaps: []float64{float64(id.Index), float64(id.Index) + 1},
			MinGap:   0.5 + float64(id.Index), MinTTC: ttc,
			Collision: id.Index%3 == 0,
		},
	}
}

// computeLog counts how many times each global cell was computed, so
// tests can prove checkpointed cells are never re-run.
type computeLog struct {
	mu sync.Mutex
	n  map[int]int
}

func newComputeLog() *computeLog { return &computeLog{n: map[int]int{}} }

func (c *computeLog) bump(idx int) {
	c.mu.Lock()
	c.n[idx]++
	c.mu.Unlock()
}

func (c *computeLog) count(idx int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[idx]
}

// fakeTransport is a deterministic worker: it computes fakeCell for its
// shard's cells, persists them through the eval lane (resume, dedup,
// torn-tail repair included), and streams cell-done events.
type fakeTransport struct {
	computes *computeLog
	// slow delays each cell of the keyed shards — the straggler dial.
	slow map[int]time.Duration
}

func (t *fakeTransport) Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error {
	grid, err := spec.Grid()
	if err != nil {
		return err
	}
	lane, done, err := grid.OpenLane(spec.Sweep.JSONL, spec.Sweep.Resume)
	if err != nil {
		return err
	}
	defer lane.Close()
	n := spec.Sweep.NumShards
	if n <= 0 {
		n = 1
	}
	for _, id := range grid.IDs {
		if _, ok := done[id.Index]; id.Index%n != spec.Sweep.Shard || ok {
			continue
		}
		if d := t.slow[spec.Sweep.Shard]; d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
		if t.computes != nil {
			t.computes.bump(id.Index)
		}
		cell := fakeCell(id)
		fresh, err := lane.Append(id.Index, cell)
		if err != nil {
			return err
		}
		if fresh {
			emit(obs, cellDone(grid, id.Index, &cell))
		}
	}
	return lane.Close()
}

// referenceCSV is the unsharded ground truth every dispatch run must
// reproduce byte for byte.
func referenceCSV(t *testing.T, spec exp.Spec) string {
	t.Helper()
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	rep := eval.MatrixReport{Preset: grid.Preset, Cells: make([]eval.MatrixCell, len(grid.IDs))}
	for i, id := range grid.IDs {
		rep.Cells[i] = fakeCell(id)
	}
	return rep.CSV()
}

// eventTrace is a race-safe observer that records the merged stream.
type eventTrace struct {
	mu     sync.Mutex
	events []eval.Event
}

func (e *eventTrace) Observe(ev eval.Event) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

func (e *eventTrace) snapshot() []eval.Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]eval.Event(nil), e.events...)
}

// baseConfig returns a fast-failing test config over the given workers.
func baseConfig(t *testing.T, workers ...Worker) Config {
	t.Helper()
	return Config{
		Spec:        testSpec(),
		Workers:     workers,
		Dir:         t.TempDir(),
		Heartbeat:   2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		HedgeAfter:  1, // off by default: tests assert exact compute counts
		Logf:        t.Logf,
	}
}

// mustRun dispatches and asserts byte-identity with the unsharded
// reference.
func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("dispatch failed: %v", err)
	}
	if want := referenceCSV(t, cfg.Spec); rep.CSV != want {
		t.Fatalf("dispatched CSV diverges from the unsharded reference:\ngot:\n%s\nwant:\n%s", rep.CSV, want)
	}
	return rep
}

func TestDispatchCleanConvergence(t *testing.T) {
	log := newComputeLog()
	trace := &eventTrace{}
	cfg := baseConfig(t,
		Worker{Name: "a", Transport: &fakeTransport{computes: log}},
		Worker{Name: "b", Transport: &fakeTransport{computes: log}},
	)
	cfg.NumShards = 4
	cfg.Observer = trace

	rep := mustRun(t, cfg)
	if rep.Shards != 4 || rep.Retries != 0 || rep.Hedges != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("clean run bookkeeping off: %+v", rep)
	}
	for i := 0; i < 8; i++ {
		if got := log.count(i); got != 1 {
			t.Fatalf("cell %d computed %d times, want exactly 1", i, got)
		}
	}

	// The merged stream frames the whole grid once: one run-start, one
	// deduplicated cell-done per cell (Done values are a permutation of
	// 1..8), one run-done.
	events := trace.snapshot()
	var starts, dones int
	seenDone := map[int]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case eval.EventRunStart:
			starts++
			if ev.Total != 8 {
				t.Fatalf("run-start total = %d, want 8", ev.Total)
			}
		case eval.EventRunDone:
			dones++
		case eval.EventCellDone:
			if seenDone[ev.Cell.Index] {
				t.Fatalf("cell %d delivered twice to the observer", ev.Cell.Index)
			}
			seenDone[ev.Cell.Index] = true
			if ev.Done < 1 || ev.Done > 8 {
				t.Fatalf("cell-done progress %d out of range", ev.Done)
			}
		}
	}
	if starts != 1 || dones != 1 || len(seenDone) != 8 {
		t.Fatalf("stream framing: %d run-starts, %d run-dones, %d cells", starts, dones, len(seenDone))
	}
}

func TestDispatchKillMidShardResumesWithoutRecompute(t *testing.T) {
	log := newComputeLog()
	cfg := baseConfig(t,
		Worker{Name: "flaky", Transport: &KillAfter{Inner: &fakeTransport{computes: log}, N: 2}},
		Worker{Name: "steady", Transport: &fakeTransport{computes: log}},
	)
	cfg.NumShards = 2

	rep := mustRun(t, cfg)
	if rep.Retries == 0 {
		t.Fatal("kill-at-cell-2 produced no retry")
	}
	// Every cell the crashed attempt persisted survives the retry: the
	// resume path re-runs nothing that reached the lane file.
	for i := 0; i < 8; i++ {
		if got := log.count(i); got != 1 {
			t.Fatalf("cell %d computed %d times after crash-resume, want exactly 1", i, got)
		}
	}
}

func TestDispatchTornTailRepair(t *testing.T) {
	log := newComputeLog()
	cfg := baseConfig(t,
		Worker{Name: "tearing", Transport: &TornTail{Inner: &fakeTransport{computes: log}, N: 2}},
		Worker{Name: "steady", Transport: &fakeTransport{computes: log}},
	)
	cfg.NumShards = 2

	rep := mustRun(t, cfg)
	if rep.Retries == 0 {
		t.Fatal("torn tail produced no retry")
	}
	// The shear destroys exactly one persisted record; only that cell is
	// recomputed, everything before the tear resumes from the lane.
	recomputed := 0
	for i := 0; i < 8; i++ {
		switch got := log.count(i); got {
		case 1:
		case 2:
			recomputed++
		default:
			t.Fatalf("cell %d computed %d times", i, got)
		}
	}
	if recomputed != 1 {
		t.Fatalf("%d cells recomputed after tail repair, want exactly the torn one", recomputed)
	}
}

func TestDispatchHungWorkerHeartbeat(t *testing.T) {
	log := newComputeLog()
	cfg := baseConfig(t,
		Worker{Name: "wedged", Transport: &HangAfter{Inner: &fakeTransport{computes: log}, N: 1}},
		Worker{Name: "steady", Transport: &fakeTransport{computes: log}},
	)
	cfg.NumShards = 2
	cfg.Heartbeat = 100 * time.Millisecond

	rep := mustRun(t, cfg)
	if rep.Retries == 0 {
		t.Fatal("hung worker was never killed and retried")
	}
}

func TestDispatchDuplicateDeliveryDedups(t *testing.T) {
	log := newComputeLog()
	trace := &eventTrace{}
	cfg := baseConfig(t,
		Worker{Name: "a", Transport: &DuplicateEvents{Inner: &fakeTransport{computes: log}}},
		Worker{Name: "b", Transport: &DuplicateEvents{Inner: &fakeTransport{computes: log}}},
	)
	cfg.NumShards = 4
	cfg.Observer = trace

	mustRun(t, cfg)
	cells := 0
	for _, ev := range trace.snapshot() {
		if ev.Kind == eval.EventCellDone {
			cells++
			if ev.Done > 8 {
				t.Fatalf("duplicate delivery inflated progress to %d/8", ev.Done)
			}
		}
	}
	if cells != 8 {
		t.Fatalf("observer saw %d cell completions, want 8 deduplicated", cells)
	}
}

func TestDispatchDialFailureBackoff(t *testing.T) {
	log := newComputeLog()
	cfg := baseConfig(t,
		Worker{Name: "only", Transport: &DialFail{Inner: &fakeTransport{computes: log}, Times: 2}},
	)
	cfg.NumShards = 2
	cfg.MaxAttempts = 4

	rep := mustRun(t, cfg)
	if rep.Retries < 2 {
		t.Fatalf("two dial failures produced %d retries", rep.Retries)
	}
	// The sole worker keeps its job no matter how many strikes: the
	// blacklist never quarantines the last healthy worker.
	if len(rep.Quarantined) != 0 {
		t.Fatalf("last healthy worker quarantined: %v", rep.Quarantined)
	}
}

// strikeSignal refuses every dial and closes struck on the second
// refusal — the strike that quarantines it.
type strikeSignal struct {
	mu     sync.Mutex
	calls  int
	struck chan struct{}
}

func (t *strikeSignal) Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if t.calls == 2 {
		close(t.struck)
	}
	return errInjected{"dial refused"}
}

// gatedTransport holds every run until open closes, so the worker cannot
// finish the grid before the gate's owner has done its part.
type gatedTransport struct {
	inner Transport
	open  <-chan struct{}
}

func (t *gatedTransport) Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error {
	select {
	case <-t.open:
	case <-ctx.Done():
		return ctx.Err()
	}
	return t.inner.Run(ctx, spec, obs)
}

// TestDispatchQuarantinesRepeatOffender: the good worker's shards wait
// on the bad worker's second strike, so the quarantine lands whatever
// the scheduling order.
func TestDispatchQuarantinesRepeatOffender(t *testing.T) {
	log := newComputeLog()
	bad := &strikeSignal{struck: make(chan struct{})}
	cfg := baseConfig(t,
		Worker{Name: "bad", Transport: bad},
		Worker{Name: "good", Transport: &gatedTransport{inner: &fakeTransport{computes: log}, open: bad.struck}},
	)
	cfg.NumShards = 4
	cfg.MaxStrikes = 2
	cfg.MaxAttempts = 6
	cfg.Heartbeat = 200 * time.Millisecond // fast reschedule ticks

	rep := mustRun(t, cfg)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "bad" {
		t.Fatalf("quarantine list = %v, want [bad]", rep.Quarantined)
	}
}

func TestDispatchHedgesStraggler(t *testing.T) {
	log := newComputeLog()
	slow := map[int]time.Duration{3: 150 * time.Millisecond}
	cfg := baseConfig(t,
		Worker{Name: "a", Transport: &fakeTransport{computes: log, slow: slow}},
		Worker{Name: "b", Transport: &fakeTransport{computes: log, slow: slow}},
	)
	cfg.NumShards = 4
	cfg.Heartbeat = 200 * time.Millisecond
	cfg.HedgeAfter = 0.5
	cfg.HedgeFactor = 1.5

	rep := mustRun(t, cfg)
	if rep.Hedges == 0 {
		t.Fatal("straggling shard was never hedged")
	}
}

func TestDispatchResumeAcrossRestart(t *testing.T) {
	log := newComputeLog()
	cfg := baseConfig(t,
		Worker{Name: "a", Transport: &fakeTransport{computes: log}},
	)
	cfg.NumShards = 2
	cfg.Resume = true
	root := filepath.Join(t.TempDir(), "store")
	cfg.Checkpoints = dirStoreTransport(root)

	// A previous dispatcher generation completed shard 0 and crashed:
	// its lane survives in full.
	grid, err := cfg.Spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	prewritten := 0
	var lines []string
	for _, id := range grid.IDs {
		if id.Index%2 != 0 {
			continue
		}
		raw, err := json.Marshal(grid.Record(id.Index, fakeCell(id)))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
		prewritten++
	}
	lane := filepath.Join(cfg.Dir, "shard_0_of_2.jsonl")
	if err := os.WriteFile(lane, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Its hedge lane and the replica both hold the NaN-gap-error cell 4
	// too: the same record, so resume folds it without a divergence.
	nan := grid.Record(4, fakeCell(grid.IDs[4]))
	raw, err := json.Marshal(nan)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, "shard_0_of_2_hedge.jsonl"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	replica := dirStoreTransport(root)
	if err := replica.Bind(cfg.Spec, grid); err != nil {
		t.Fatal(err)
	}
	if err := replica.Publish("shard_0_of_2.jsonl", nan); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, cfg)
	if rep.Resumed != prewritten {
		t.Fatalf("resumed %d cells, want %d", rep.Resumed, prewritten)
	}
	for _, id := range grid.IDs {
		want := 1
		if id.Index%2 == 0 {
			want = 0 // recovered from the lane, never recomputed
		}
		if got := log.count(id.Index); got != want {
			t.Fatalf("cell %d computed %d times across restart, want %d", id.Index, got, want)
		}
	}
}

func TestDispatchResumeRejectsStaleLane(t *testing.T) {
	cfg := baseConfig(t, Worker{Name: "a", Transport: &fakeTransport{}})
	cfg.NumShards = 2
	cfg.Resume = true

	// A lane from a different configuration (doubled duration) must not
	// silently seed this run.
	grid, err := cfg.Spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	id := grid.IDs[0]
	stale := grid
	stale.Duration *= 2
	raw, err := json.Marshal(stale.Record(id.Index, fakeCell(id)))
	if err != nil {
		t.Fatal(err)
	}
	lane := filepath.Join(cfg.Dir, "shard_0_of_2.jsonl")
	if err := os.WriteFile(lane, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "stale checkpoint?") {
		t.Fatalf("stale lane accepted: err = %v", err)
	}
}

// httpFakeRunner executes sweep specs with fakeCell results — the remote
// daemon's compute core, minus the simulator.
type httpFakeRunner struct{}

func (httpFakeRunner) RunObserved(ctx context.Context, s exp.Spec, obs exp.Observer) (*exp.Result, error) {
	ids, err := s.CellIDs()
	if err != nil {
		return nil, err
	}
	n, shard := 1, 0
	if s.Sweep != nil {
		shard = s.Sweep.Shard
		if s.Sweep.NumShards > 0 {
			n = s.Sweep.NumShards
		}
	}
	sr := eval.SweepReport{Preset: "quick", Total: len(ids), Shard: shard, NumShards: n}
	for _, id := range ids {
		if id.Index%n != shard {
			continue
		}
		cell := fakeCell(id)
		sr.Indices = append(sr.Indices, id.Index)
		sr.Cells = append(sr.Cells, cell)
		if obs != nil {
			obs.Observe(eval.Event{Kind: eval.EventCellDone, Total: len(ids), Done: len(sr.Cells), Cell: id, Result: &cell})
		}
	}
	mrep := sr.Matrix()
	return &exp.Result{Spec: s, Text: "fake sweep", Matrix: &mrep, Sweep: &sr}, nil
}

func TestDispatchHTTPTransport(t *testing.T) {
	srv := serve.New(context.Background(), serve.Config{
		NewRunner: func(ctx context.Context, preset string, logf func(string, ...any)) (serve.Runner, error) {
			return httpFakeRunner{}, nil
		},
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cfg := baseConfig(t,
		Worker{Name: "remote-a", Transport: &HTTPTransport{Base: hs.URL, Logf: t.Logf}},
		Worker{Name: "remote-b", Transport: &HTTPTransport{Base: hs.URL, Logf: t.Logf}},
	)
	cfg.NumShards = 2
	mustRun(t, cfg)

	// A second dispatch of the same grid lands entirely on the daemon's
	// result cache: no cell events stream, the lanes are backfilled from
	// the terminal payload's record set — and the bytes still match.
	cfg2 := baseConfig(t,
		Worker{Name: "remote-a", Transport: &HTTPTransport{Base: hs.URL, Logf: t.Logf}},
	)
	cfg2.NumShards = 2
	mustRun(t, cfg2)
	if computes, hits, _ := srv.Stats(); computes != 2 || hits < 2 {
		t.Fatalf("second dispatch did not ride the cache: computes=%d hits=%d", computes, hits)
	}
}

func TestParseInjections(t *testing.T) {
	injs, err := ParseInjections("kill:0@2, dial:1@3 ,dup:0,torn:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Injection{
		{Fault: "kill", Worker: 0, N: 2},
		{Fault: "dial", Worker: 1, N: 3},
		{Fault: "dup", Worker: 0, N: 1},
		{Fault: "torn", Worker: 2, N: 1},
	}
	if len(injs) != len(want) {
		t.Fatalf("parsed %d injections, want %d", len(injs), len(want))
	}
	for i := range want {
		if injs[i] != want[i] {
			t.Fatalf("injection %d = %+v, want %+v", i, injs[i], want[i])
		}
	}
	for _, bad := range []string{"kill", "kill:x", "kill:-1", "kill:0@x", "explode:0"} {
		if _, err := ParseInjections(bad); err == nil {
			t.Fatalf("ParseInjections(%q) accepted", bad)
		}
	}

	workers := []Worker{{Name: "w0", Transport: &fakeTransport{}}}
	if err := ApplyInjections(workers, []Injection{{Fault: "kill", Worker: 1, N: 1}}); err == nil {
		t.Fatal("out-of-range worker index accepted")
	}
	if err := ApplyInjections(workers, []Injection{{Fault: "kill", Worker: 0, N: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := workers[0].Transport.(*KillAfter); !ok {
		t.Fatalf("injection did not wrap the transport: %T", workers[0].Transport)
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	cfg := Config{
		Workers:     []Worker{{Transport: &fakeTransport{}}},
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  time.Second,
	}
	d := &dispatcher{cfg: cfg.withDefaults(), rng: xrand.New(7)}
	for attempts := 1; attempts <= 10; attempts++ {
		delay := d.backoff(attempts)
		if delay > time.Second {
			t.Fatalf("attempt %d backoff %v exceeds the cap", attempts, delay)
		}
		if delay < 50*time.Millisecond {
			t.Fatalf("attempt %d backoff %v below base/2", attempts, delay)
		}
	}
}
