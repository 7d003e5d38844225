package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/serve"
)

// Checkpoint-transport tests extend the dispatcher's one-sentence
// contract off-machine: whatever faults the fleet OR the replica store
// throws — worker crash, torn remote segment, transient store outage,
// duplicate segment delivery — the merged report stays byte-identical to
// an unsharded run, and a dispatch whose lane data survives only in the
// replica resumes with zero recomputed cells.

// testTransports enumerates the store replica backends under test, each
// constructed fresh over durable backing state so a second construction
// simulates a new dispatcher process on a new machine. The roll size is
// the shipped default.
func testTransports(t *testing.T) map[string]func() *StoreTransport {
	t.Helper()
	storeDir := filepath.Join(t.TempDir(), "store")
	srv := serve.New(context.Background(), serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return map[string]func() *StoreTransport{
		"store-dir": func() *StoreTransport {
			return &StoreTransport{
				Store:     serve.NewDirStore(storeDir),
				RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
			}
		},
		"store-http": func() *StoreTransport {
			return &StoreTransport{
				Store:     &serve.HTTPStore{Base: hs.URL},
				RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
			}
		},
	}
}

// TestCheckpointTransportsFaultMatrix drives every worker fault class
// through every store backend: the byte-identity gate must hold
// on all of them (mustRun asserts it), and crash-resume must still never
// recompute a checkpointed cell.
func TestCheckpointTransportsFaultMatrix(t *testing.T) {
	faults := []string{"kill", "hang", "torn", "dup", "dial"}
	for name, mk := range testTransports(t) {
		for _, fault := range faults {
			t.Run(name+"/"+fault, func(t *testing.T) {
				log := newComputeLog()
				inner := func() Transport { return &fakeTransport{computes: log} }
				var faulty Transport
				switch fault {
				case "kill":
					faulty = &KillAfter{Inner: inner(), N: 2}
				case "hang":
					faulty = &HangAfter{Inner: inner(), N: 1}
				case "torn":
					faulty = &TornTail{Inner: inner(), N: 2}
				case "dup":
					faulty = &DuplicateEvents{Inner: inner()}
				case "dial":
					faulty = &DialFail{Inner: inner(), Times: 1}
				}
				cfg := baseConfig(t,
					Worker{Name: "faulty", Transport: faulty},
					Worker{Name: "steady", Transport: inner()},
				)
				cfg.NumShards = 2
				cfg.Checkpoints = mk()
				if fault == "hang" {
					cfg.Heartbeat = 100 * time.Millisecond
				}
				rep := mustRun(t, cfg)
				if rep.Transport != "store" {
					t.Fatalf("report claims the %s transport, want store", rep.Transport)
				}
				// Nothing persisted — locally or in the replica — may be
				// computed twice, except the single record a torn tail
				// destroys.
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
				if fault == "torn" && recomputed > 1 {
					t.Fatalf("%d cells recomputed after tail repair, want at most the torn one", recomputed)
				}
				if fault != "torn" && recomputed != 0 {
					t.Fatalf("%d cells recomputed under %s fault, want 0", recomputed, fault)
				}
			})
		}
	}
}

// TestDispatchMachineLossResume is the off-machine durability headline:
// a dispatch completes, the ENTIRE local lane directory is lost, and a
// fresh dispatcher (new transport instance over the same backing store)
// resumes to a byte-identical report with zero recomputed cells.
func TestDispatchMachineLossResume(t *testing.T) {
	for name, mk := range testTransports(t) {
		t.Run(name, func(t *testing.T) {
			log := newComputeLog()
			cfg := baseConfig(t,
				Worker{Name: "a", Transport: &fakeTransport{computes: log}},
				Worker{Name: "b", Transport: &fakeTransport{computes: log}},
			)
			cfg.NumShards = 2
			cfg.Checkpoints = mk()
			mustRun(t, cfg)

			// The machine dies: every local lane file is gone.
			if err := os.RemoveAll(cfg.Dir); err != nil {
				t.Fatal(err)
			}

			relog := newComputeLog()
			cfg2 := cfg
			cfg2.Workers = []Worker{{Name: "a2", Transport: &fakeTransport{computes: relog}}}
			cfg2.Resume = true
			cfg2.Checkpoints = mk() // a fresh process: no in-memory state
			rep := mustRun(t, cfg2)

			if rep.Fetched != 8 {
				t.Fatalf("fetched %d cells from the %s replica, want all 8", rep.Fetched, name)
			}
			if rep.Resumed != 8 {
				t.Fatalf("resumed %d cells, want all 8", rep.Resumed)
			}
			for i := 0; i < 8; i++ {
				if got := relog.count(i); got != 0 {
					t.Fatalf("cell %d recomputed %d times after machine loss, want 0", i, got)
				}
			}
		})
	}
}

// TestStorePublishDurableWithoutMerge is the crash window at the
// transport level: every cell of the grid is published at the shipped
// roll size, the dispatcher dies before merge, and a fresh transport over
// the same store must load every record — none may wait on a later
// flush.
func TestStorePublishDurableWithoutMerge(t *testing.T) {
	spec := testSpec()
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(t.TempDir(), "store")
	ct := dirStoreTransport(root)
	if err := ct.Bind(spec, grid); err != nil {
		t.Fatal(err)
	}
	lane := func(idx int) string { return fmt.Sprintf("shard_%d_of_2.jsonl", idx%2) }
	for _, id := range grid.IDs {
		if err := ct.Publish(lane(id.Index), grid.Record(id.Index, fakeCell(id))); err != nil {
			t.Fatal(err)
		}
	}

	// The process dies here: no merge, no further publish.
	fresh := dirStoreTransport(root)
	if err := fresh.Bind(spec, grid); err != nil {
		t.Fatal(err)
	}
	loaded := 0
	for s := 0; s < 2; s++ {
		recs, err := fresh.Load(lane(s))
		if err != nil {
			t.Fatal(err)
		}
		loaded += len(recs)
	}
	if loaded != len(grid.IDs) {
		t.Fatalf("a fresh transport loaded %d of %d published records", loaded, len(grid.IDs))
	}
}

// TestDispatchCancelledRunResumesFromReplica is the crash window at the
// dispatcher level: the run is cut after k observed cells (before any
// merge), the local lane directory is lost, and a resume over a fresh
// transport must fetch at least those k cells from the replica and
// recompute none of them.
func TestDispatchCancelledRunResumesFromReplica(t *testing.T) {
	const k = 3
	root := filepath.Join(t.TempDir(), "store")
	cfg := baseConfig(t, Worker{Name: "a", Transport: &fakeTransport{computes: newComputeLog()}})
	cfg.NumShards = 2
	cfg.Checkpoints = dirStoreTransport(root)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	observed := map[int]bool{}
	cfg.Observer = eval.ObserverFunc(func(ev eval.Event) {
		if ev.Kind != eval.EventCellDone {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if len(observed) < k {
			observed[ev.Cell.Index] = true
			if len(observed) == k {
				cancel()
			}
		}
	})
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatalf("dispatch cut after %d cells reported success", k)
	}

	// The machine dies: every local lane file is gone.
	if err := os.RemoveAll(cfg.Dir); err != nil {
		t.Fatal(err)
	}
	relog := newComputeLog()
	cfg2 := cfg
	cfg2.Workers = []Worker{{Name: "a2", Transport: &fakeTransport{computes: relog}}}
	cfg2.Resume = true
	cfg2.Checkpoints = dirStoreTransport(root)
	cfg2.Observer = nil
	rep := mustRun(t, cfg2)

	if rep.Fetched < k {
		t.Fatalf("fetched %d cells from the replica, want at least the %d observed before the cut", rep.Fetched, k)
	}
	for idx := range observed {
		if got := relog.count(idx); got != 0 {
			t.Fatalf("cell %d was observed before the cut but recomputed %d times", idx, got)
		}
	}
}

// storeConfig builds a dispatch config over a DirStore-backed store
// transport, returning the store root.
func storeConfig(t *testing.T, log *computeLog, wrap func(serve.ObjectStore) serve.ObjectStore) (Config, string) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "store")
	var store serve.ObjectStore = serve.NewDirStore(root)
	if wrap != nil {
		store = wrap(store)
	}
	cfg := baseConfig(t, Worker{Name: "a", Transport: &fakeTransport{computes: log}})
	cfg.NumShards = 2
	cfg.Checkpoints = &StoreTransport{
		Store:     store,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
	return cfg, root
}

// dirStoreTransport is a fresh transport over an existing DirStore root:
// a new dispatcher process with no in-memory state.
func dirStoreTransport(root string) *StoreTransport {
	return &StoreTransport{
		Store:     serve.NewDirStore(root),
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
}

// TestStoreTransportTornSegmentRecomputesOnlyDamage: a segment whose
// upload tore mid-record (reported success, stored half the bytes) costs
// exactly the damaged record on a machine-loss resume — the valid prefix
// and every other segment still count. One record per segment, so the
// torn segment is closed before a later publish could re-Put it whole.
func TestStoreTransportTornSegmentRecomputesOnlyDamage(t *testing.T) {
	log := newComputeLog()
	cfg, root := storeConfig(t, log, func(s serve.ObjectStore) serve.ObjectStore {
		return &TornPutStore{Inner: s, N: 1}
	})
	cfg.Checkpoints.segmentBytes = 1
	mustRun(t, cfg)
	if err := os.RemoveAll(cfg.Dir); err != nil {
		t.Fatal(err)
	}

	relog := newComputeLog()
	cfg2 := cfg
	cfg2.Workers = []Worker{{Name: "a2", Transport: &fakeTransport{computes: relog}}}
	cfg2.Resume = true
	cfg2.Checkpoints = dirStoreTransport(root)
	rep := mustRun(t, cfg2)

	recomputed := 0
	for i := 0; i < 8; i++ {
		switch got := relog.count(i); got {
		case 0:
		case 1:
			recomputed++
		default:
			t.Fatalf("cell %d computed %d times", i, got)
		}
	}
	if recomputed != 1 {
		t.Fatalf("%d cells recomputed after a torn segment, want exactly the damaged one", recomputed)
	}
	if rep.Fetched != 7 {
		t.Fatalf("fetched %d cells, want the 7 undamaged ones", rep.Fetched)
	}
}

// TestStoreTransportOutageRetries: a transiently unavailable store (the
// first N operations fail) is ridden out by the capped jittered retry —
// the run converges without surfacing the outage.
func TestStoreTransportOutageRetries(t *testing.T) {
	log := newComputeLog()
	cfg, _ := storeConfig(t, log, func(s serve.ObjectStore) serve.ObjectStore {
		return &OutageStore{Inner: s, Times: 3}
	})
	mustRun(t, cfg)
	for i := 0; i < 8; i++ {
		if got := log.count(i); got != 1 {
			t.Fatalf("cell %d computed %d times through the outage, want 1", i, got)
		}
	}
}

// TestStoreTransportOutagePastBudgetFails: a store that stays down past
// the retry budget is an error, not silent data loss.
func TestStoreTransportOutagePastBudgetFails(t *testing.T) {
	cfg, _ := storeConfig(t, newComputeLog(), func(s serve.ObjectStore) serve.ObjectStore {
		return &OutageStore{Inner: s, Times: 10_000}
	})
	cfg.Checkpoints.Retries = 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := Run(ctx, cfg)
	if err == nil || !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("permanent store outage did not fail the run: %v", err)
	}
}

// TestStoreTransportDuplicateSegmentDelivery: every segment delivered
// twice (under its own key and the following one) still loads to the
// exact record set — dedup by grid index absorbs at-least-once delivery.
// One record per segment, so every lane spans several segments.
func TestStoreTransportDuplicateSegmentDelivery(t *testing.T) {
	log := newComputeLog()
	cfg, root := storeConfig(t, log, func(s serve.ObjectStore) serve.ObjectStore {
		return &DuplicatePutStore{Inner: s}
	})
	cfg.Checkpoints.segmentBytes = 1
	mustRun(t, cfg)
	if err := os.RemoveAll(cfg.Dir); err != nil {
		t.Fatal(err)
	}

	relog := newComputeLog()
	cfg2 := cfg
	cfg2.Workers = []Worker{{Name: "a2", Transport: &fakeTransport{computes: relog}}}
	cfg2.Resume = true
	cfg2.Checkpoints = dirStoreTransport(root)
	rep := mustRun(t, cfg2)
	if rep.Fetched != 8 {
		t.Fatalf("fetched %d cells through duplicate delivery, want 8", rep.Fetched)
	}
	for i := 0; i < 8; i++ {
		if got := relog.count(i); got != 0 {
			t.Fatalf("cell %d recomputed %d times, want 0", i, got)
		}
	}
}

// TestStoreTransportRejectsStaleRemoteLane: replica records stamped with
// a different run configuration (here: doubled duration) must not seed a
// resume — the same "stale checkpoint?" hard error the local path gives.
func TestStoreTransportRejectsStaleRemoteLane(t *testing.T) {
	cfg, _ := storeConfig(t, newComputeLog(), nil)
	cfg.Resume = true
	st := cfg.Checkpoints

	// Bind a throwaway twin to learn the content-address prefix, then
	// plant a stale record where the resume will look.
	grid, err := cfg.Spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	twin := &StoreTransport{Store: st.Store}
	if err := twin.Bind(cfg.Spec, grid); err != nil {
		t.Fatal(err)
	}
	id := grid.IDs[0]
	stale := grid
	stale.Duration *= 2
	raw, err := json.Marshal(stale.Record(id.Index, fakeCell(id)))
	if err != nil {
		t.Fatal(err)
	}
	key := twin.segKey("shard_0_of_2.jsonl", 0)
	if err := st.Store.Put(key, append(raw, '\n')); err != nil {
		t.Fatal(err)
	}

	_, err = Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "stale checkpoint?") {
		t.Fatalf("stale remote lane accepted: err = %v", err)
	}
}

// TestFreshRunClearsReplica: without -resume the replica lanes are
// cleared alongside the local ones, so an abandoned dispatch cannot leak
// records into a fresh run's replica.
func TestFreshRunClearsReplica(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	cfg := baseConfig(t, Worker{Name: "a", Transport: &fakeTransport{computes: newComputeLog()}})
	cfg.NumShards = 2
	cfg.Checkpoints = dirStoreTransport(root)
	mustRun(t, cfg)

	// Re-dispatch the same grid WITHOUT resume: the old replica records
	// must be gone before the run starts, and the run still converges.
	cfg2 := cfg
	cfg2.Checkpoints = dirStoreTransport(root)
	cfg2.Workers = []Worker{{Name: "b", Transport: &fakeTransport{computes: newComputeLog()}}}
	mustRun(t, cfg2)

	lanes, err := cfg2.Checkpoints.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) != 2 {
		t.Fatalf("replica holds %d lanes after the fresh run, want the 2 it wrote: %v", len(lanes), lanes)
	}
}

// TestLaneProgressSeesReplicaOnlyRecords is the exec-liveness fix in
// miniature: a lane whose records exist only in the replica (the worker
// streams off-machine; the local tail is empty) still shows progress, so
// the liveness poll cannot falsely declare the shard hung.
func TestLaneProgressSeesReplicaOnlyRecords(t *testing.T) {
	spec := testSpec()
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	ct := dirStoreTransport(t.TempDir())
	if err := ct.Bind(spec, grid); err != nil {
		t.Fatal(err)
	}
	lane := "shard_0_of_2.jsonl"
	for _, idx := range []int{0, 2} {
		if err := ct.Publish(lane, grid.Record(idx, fakeCell(grid.IDs[idx]))); err != nil {
			t.Fatal(err)
		}
	}

	localPath := filepath.Join(t.TempDir(), lane) // never written
	if done := laneProgress(localPath, grid, nil); len(done) != 0 {
		t.Fatalf("no transport, no local file: %d records, want 0", len(done))
	}
	done := laneProgress(localPath, grid, ct)
	if len(done) != 2 {
		t.Fatalf("laneProgress saw %d records via the replica, want 2", len(done))
	}
}

func TestParseCheckpointTransport(t *testing.T) {
	for _, fs := range []string{"", "fs"} {
		ct, err := ParseCheckpointTransport(fs)
		if err != nil || ct != nil {
			t.Fatalf("ParseCheckpointTransport(%q) = %v, %v; want no replica", fs, ct, err)
		}
	}
	ct, err := ParseCheckpointTransport("store:/tmp/s")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ct.Store.(*serve.DirStore); !ok {
		t.Fatalf("store:DIR built %T, want DirStore", ct.Store)
	}
	ct, err = ParseCheckpointTransport("store:http://localhost:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ct.Store.(*serve.HTTPStore); !ok {
		t.Fatalf("store:http://… built %T, want HTTPStore", ct.Store)
	}
	for _, bad := range []string{"mirror:/tmp/m", "mirror:", "store:", "rsync:/x", "fsx"} {
		_, err := ParseCheckpointTransport(bad)
		if err == nil {
			t.Fatalf("ParseCheckpointTransport(%q) accepted", bad)
		}
		if !strings.Contains(err.Error(), "store:DIR") && bad != "store:" {
			t.Fatalf("ParseCheckpointTransport(%q) error does not name store:DIR: %v", bad, err)
		}
	}
}

func TestParseStoreInjections(t *testing.T) {
	injs, err := ParseStoreInjections("outage:3, torn:2 ,dup")
	if err != nil {
		t.Fatal(err)
	}
	want := []StoreInjection{
		{Fault: "outage", N: 3},
		{Fault: "torn", N: 2},
		{Fault: "dup", N: 1},
	}
	if len(injs) != len(want) {
		t.Fatalf("parsed %d injections, want %d", len(injs), len(want))
	}
	for i := range want {
		if injs[i] != want[i] {
			t.Fatalf("injection %d = %+v, want %+v", i, injs[i], want[i])
		}
	}
	for _, bad := range []string{"outage:x", "flood:1"} {
		if _, err := ParseStoreInjections(bad); err == nil {
			t.Fatalf("ParseStoreInjections(%q) accepted", bad)
		}
	}

	st := &StoreTransport{Store: serve.NewMemStore()}
	if err := ApplyStoreInjections(st, injs); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Store.(*DuplicatePutStore); !ok {
		t.Fatalf("last directive did not wrap outermost: %T", st.Store)
	}
	if err := ApplyStoreInjections(nil, injs); err == nil {
		t.Fatal("store injections accepted on the fs transport")
	}
}
