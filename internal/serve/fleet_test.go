package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
)

// Fleet-facing serving behaviour: load shedding under -maxruns, the
// reconnecting stream client, and the checkpoint records that ride the
// wire so a dispatcher can rebuild lane files from remote runs.

// newShedServer wires a gated fakeRunner behind a server with MaxRuns=1.
func newShedServer(t *testing.T, fake *fakeRunner) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv := New(ctx, Config{
		MaxRuns: 1,
		NewRunner: func(context.Context, string, func(string, ...any)) (Runner, error) {
			return fake, nil
		},
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func TestServeMaxRunsShedsNewFlights(t *testing.T) {
	fake := &fakeRunner{gate: make(chan struct{})}
	srv, hs := newShedServer(t, fake)
	spec, _ := exp.ParseSpec([]byte(testSpecJSON))
	key, _ := exp.SpecHash(spec)

	// Occupy the single run slot.
	first := make(chan [][]byte, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(testSpecJSON))
		if err != nil {
			first <- nil
			return
		}
		defer resp.Body.Close()
		first <- readLines(t, resp.Body)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.flightFor(key) == nil {
		if time.Now().After(deadline) {
			t.Fatal("first flight never started")
		}
		time.Sleep(time.Millisecond)
	}

	// A DIFFERENT spec would need a second flight: refused with 503 and
	// a Retry-After hint, not queued and not computed.
	resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(`{"kind":"table2","preset":"quick"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity flight: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After hint")
	}

	// The SAME spec joins the existing flight: no new compute, served.
	joined := make(chan [][]byte, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(testSpecJSON))
		if err != nil {
			joined <- nil
			return
		}
		defer resp.Body.Close()
		joined <- readLines(t, resp.Body)
	}()
	for {
		fl := srv.flightFor(key)
		if fl != nil && fl.subscribers() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("join was refused at capacity")
		}
		time.Sleep(time.Millisecond)
	}

	// /healthz exposes the pressure the dispatcher's client reacts to.
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		InFlight int   `json:"in_flight"`
		MaxRuns  int   `json:"max_runs"`
		Rejected int64 `json:"rejected"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.InFlight != 1 || health.MaxRuns != 1 || health.Rejected != 1 {
		t.Fatalf("healthz pressure counters: %+v", health)
	}

	close(fake.gate)
	if lines := <-first; lines == nil {
		t.Fatal("occupying client failed")
	}
	if lines := <-joined; lines == nil {
		t.Fatal("joining client failed")
	}
	if fake.count() != 1 {
		t.Fatalf("runner ran %d times, want 1 (join adds no compute)", fake.count())
	}

	// With the slot free again, a cache hit is always served.
	lines := postRun(t, hs.URL, testSpecJSON)
	if names := eventNames(t, lines); names[0] != "cache" {
		t.Fatalf("cache hit refused after capacity freed: %v", names)
	}
}

func TestStreamSpecReconnectsThroughDrop(t *testing.T) {
	// A flaky daemon: the first response dies mid-stream after one
	// event; the second completes with a result payload.
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"event":"run-start","total":1}`)
		if n == 1 {
			return // connection ends with no terminal line: a mid-run drop
		}
		fmt.Fprintln(w, `{"event":"cache","key":"k","hit":false}`)
		fmt.Fprintln(w, `{"event":"result","key":"k","kind":"table1","preset":"quick","text":"ok"}`)
	}))
	defer flaky.Close()

	var logs []string
	var events []string
	payload, hit, err := StreamSpec(context.Background(), flaky.URL, []byte(testSpecJSON), StreamConfig{
		MaxReconnects: 2,
		ReconnectWait: time.Millisecond,
		Logf:          func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
		OnEvent:       func(ev WireEvent) error { events = append(events, ev.Event); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || payload == nil || payload.Text != "ok" {
		t.Fatalf("payload = %+v hit=%v", payload, hit)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "reconnected (attempt 1)") {
		t.Fatalf("reconnect logs = %q", logs)
	}
	// The reconnect is surfaced in the event stream too, and the dropped
	// window's events replay (the consumer must dedup).
	joined := strings.Join(events, ",")
	if !strings.Contains(joined, "log") || strings.Count(joined, "run-start") != 2 {
		t.Fatalf("event stream = %q", joined)
	}
}

func TestStreamSpecBoundsAndClassifiesFailures(t *testing.T) {
	// Zero reconnect budget: the first drop is fatal and says so.
	dropping := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"event":"run-start","total":1}`)
	}))
	defer dropping.Close()
	_, _, err := StreamSpec(context.Background(), dropping.URL, []byte(testSpecJSON), StreamConfig{
		ReconnectWait: time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "stream failed after 0 reconnect(s)") {
		t.Fatalf("drop with no budget: %v", err)
	}

	// 503 shedding is transient: the client retries and succeeds.
	var calls atomic.Int32
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "at capacity", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"event":"cache","key":"k","hit":true}`)
		fmt.Fprintln(w, `{"event":"result","key":"k","kind":"table1","preset":"quick","text":"ok"}`)
	}))
	defer shedding.Close()
	payload, hit, err := StreamSpec(context.Background(), shedding.URL, []byte(testSpecJSON), StreamConfig{
		MaxReconnects: 3,
		ReconnectWait: time.Millisecond,
	})
	if err != nil || !hit || payload == nil {
		t.Fatalf("recovery from 503: payload=%v hit=%v err=%v", payload, hit, err)
	}

	// A remote run failure is permanent: no retry can change it.
	calls.Store(0)
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprintln(w, `{"event":"error","err":"victim exploded"}`)
	}))
	defer failing.Close()
	_, _, err = StreamSpec(context.Background(), failing.URL, []byte(testSpecJSON), StreamConfig{
		MaxReconnects: 3,
		ReconnectWait: time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "victim exploded") {
		t.Fatalf("remote failure: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent failure retried %d times", calls.Load())
	}
}

// gridRunner fakes a sweep compute: deterministic cells for the spec's
// shard, streamed as cell events.
type gridRunner struct{}

func (gridRunner) RunObserved(ctx context.Context, s exp.Spec, obs exp.Observer) (*exp.Result, error) {
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
		cell := eval.MatrixCell{
			Scenario: id.Scenario, Attack: id.Attack, Defense: id.Defense, Seed: id.Seed,
			MinGap: float64(id.Index), MinTTC: 1.0, Steps: id.Index,
		}
		sr.Indices = append(sr.Indices, id.Index)
		sr.Cells = append(sr.Cells, cell)
		if obs != nil {
			obs.Observe(exp.Event{Kind: eval.EventCellDone, Total: len(ids), Done: len(sr.Cells), Cell: id, Result: &cell})
		}
	}
	mrep := sr.Matrix()
	return &exp.Result{Spec: s, Text: "grid", Matrix: &mrep, Sweep: &sr}, nil
}

func TestServeGridStreamCarriesCheckpointRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv := New(ctx, Config{
		NewRunner: func(context.Context, string, func(string, ...any)) (Runner, error) {
			return gridRunner{}, nil
		},
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	specJSON := `{"kind":"sweep","preset":"quick","matrix":{
		"scenarios":["gentle-brake"],"attacks":["None","FGSM"],"defenses":["None"],
		"duration":1.0,"dt":0.1,"base_seed":777},
		"sweep":{"shard":1,"num_shards":2}}`
	spec, err := exp.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := spec.CellIDs()
	if err != nil {
		t.Fatal(err)
	}
	grid := eval.Grid{IDs: ids, Preset: "quick", Duration: 1.0, DT: 0.1}

	lines := postRun(t, hs.URL, specJSON)
	var records int
	var payload ResultPayload
	for _, line := range lines {
		var ev WireEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Event {
		case "cell-done":
			// Every grid completion carries the full checkpoint record,
			// valid against the grid identity and stamped with the RAW
			// spec duration/dt — byte-compatible with a local lane file.
			if len(ev.Record) == 0 {
				t.Fatalf("cell-done without record: %s", line)
			}
			var rec eval.SweepRecord
			if err := json.Unmarshal(ev.Record, &rec); err != nil {
				t.Fatal(err)
			}
			if err := grid.Validate(rec); err != nil {
				t.Fatalf("wire record rejected by grid validation: %v", err)
			}
			records++
		case "result":
			if err := json.Unmarshal(line, &payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Shard 1 of 2 over a 2-cell grid owns exactly one cell.
	if records != 1 {
		t.Fatalf("streamed %d cell records, want 1", records)
	}
	// The terminal payload carries the complete record set (cache hits
	// and reconnect gaps are backfilled from it alone), under GLOBAL
	// grid indices.
	if len(payload.Records) != 1 {
		t.Fatalf("payload carries %d records, want 1", len(payload.Records))
	}
	var rec eval.SweepRecord
	if err := json.Unmarshal(payload.Records[0], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Index != 1 {
		t.Fatalf("payload record index %d, want the global grid index 1", rec.Index)
	}
	if err := grid.Validate(rec); err != nil {
		t.Fatalf("payload record rejected: %v", err)
	}
}
