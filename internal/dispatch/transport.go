package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
)

// Transport executes one sweep-kind shard spec on some worker. The
// contract every implementation honours:
//
//   - finished cells are persisted to spec.Sweep.JSONL (the shard's lane
//     file) in checkpoint format, flushed record by record, so a crashed
//     attempt leaves a resumable tail;
//   - cell progress streams to obs (EventCellDone with the cell result
//     attached) — the dispatcher's liveness monitor feeds on these;
//   - ctx cancellation abandons the attempt promptly.
//
// The dispatcher re-runs the SAME spec (Resume=true) after a failure, so
// Run must be idempotent against its own partial output.
type Transport interface {
	Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error
}

// cellDone builds the observer event for a finished cell.
func cellDone(grid eval.Grid, index int, cell *eval.MatrixCell) eval.Event {
	return eval.Event{Kind: eval.EventCellDone, Total: len(grid.IDs), Cell: grid.IDs[index], Result: cell}
}

// PoolTransport runs shards in-process on a shared Experiment: the
// "fan out over local cores" worker. The sweep runtime itself writes the
// lane file and emits cell events; several PoolTransports may share one
// Experiment (per-run state is cloned per worker inside the sweep).
type PoolTransport struct {
	X *exp.Experiment
}

// Run implements Transport.
func (t *PoolTransport) Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error {
	// The dispatcher owns run-start/run-done framing; forward only cell
	// progress and logs.
	_, err := t.X.RunObserved(ctx, spec, eval.ObserverFunc(func(ev eval.Event) {
		switch ev.Kind {
		case eval.EventRunStart, eval.EventRunDone:
		default:
			emit(obs, ev)
		}
	}))
	return err
}

// ExecTransport runs each shard as a local `advrepro run -spec` child
// process — crash isolation without a daemon. The child writes the lane
// file; liveness is observed by tailing it: every Poll interval the
// checkpoint is re-read and newly appeared records are emitted as
// cell-done events. When a replica is configured, the poll reads the
// union of the local tail and the replica (laneProgress), so a child
// streaming its results off-machine is not declared hung while it is
// making progress the local file has not yet caught up with.
type ExecTransport struct {
	// Binary is the advrepro executable (empty = os.Executable()).
	Binary string
	// Args are extra `run` flags appended after -spec (e.g. -artifacts).
	Args []string
	// Poll is the lane-tail interval (default 200ms).
	Poll time.Duration
	// Checkpoints, when set, widens the liveness poll to include the
	// replica of the lane (the same instance the dispatcher binds).
	Checkpoints *StoreTransport
}

// Run implements Transport.
func (t *ExecTransport) Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error {
	grid, err := spec.Grid()
	if err != nil {
		return err
	}
	lane := spec.Sweep.JSONL
	body, err := spec.JSON()
	if err != nil {
		return err
	}
	specFile, err := os.CreateTemp(filepath.Dir(lane), "dispatch_spec_*.json")
	if err != nil {
		return fmt.Errorf("dispatch: spec file: %w", err)
	}
	defer os.Remove(specFile.Name())
	if _, err := specFile.Write(body); err != nil {
		specFile.Close() //advlint:close-ok error-path cleanup; the write failure is returned
		return fmt.Errorf("dispatch: spec file: %w", err)
	}
	if err := specFile.Close(); err != nil {
		return fmt.Errorf("dispatch: spec file: %w", err)
	}

	bin := t.Binary
	if bin == "" {
		if bin, err = os.Executable(); err != nil {
			return fmt.Errorf("dispatch: resolve own binary: %w", err)
		}
	}
	args := append([]string{"run", "-spec", specFile.Name()}, t.Args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr tailBuffer
	cmd.Stderr = &stderr
	cmd.Stdout = &stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dispatch: start worker: %w", err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()

	poll := t.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	seen := map[int]bool{}
	emitNew := func() {
		// laneProgress tolerates a torn tail mid-poll (normal while the
		// child is writing; the final load decides) and folds in replica
		// records the local file lacks.
		done := laneProgress(lane, grid, t.Checkpoints)
		// Emit fresh cells in grid order: the synthesized event stream
		// is part of the run's observable output.
		idxs := make([]int, 0, len(done))
		for idx := range done {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			if seen[idx] {
				continue
			}
			seen[idx] = true
			c := done[idx]
			emit(obs, cellDone(grid, idx, &c))
		}
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case err := <-waitErr:
			emitNew()
			if err != nil {
				return fmt.Errorf("dispatch: worker exited: %w (output tail: %s)", err, stderr.tail())
			}
			return nil
		case <-ticker.C:
			emitNew()
		case <-ctx.Done():
			<-waitErr // CommandContext kills the child; reap it
			return ctx.Err()
		}
	}
}

// tailBuffer retains the last chunk of child output for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// HTTPTransport runs shards on a remote `advrepro serve` daemon. The
// daemon executes the shard spec (stripped of local-only checkpoint
// fields — its single-flight/cache layer dedups by the same canonical
// hash) and streams cell-done events carrying full checkpoint records;
// the transport validates each record against the grid and appends it to
// the LOCAL lane file, so remote shards resume and merge exactly like
// local ones. Cache hits and reconnect gaps are backfilled from the
// terminal payload's record set.
type HTTPTransport struct {
	// Base is the daemon's base URL (http://host:port).
	Base string
	// Reconnects bounds mid-stream reconnect attempts per Run (the
	// dispatcher's retry/backoff wraps around whole Run failures).
	Reconnects int
	// Logf narrates reconnects (nil = silent).
	Logf func(format string, args ...any)
}

// Run implements Transport.
func (t *HTTPTransport) Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error {
	grid, err := spec.Grid()
	if err != nil {
		return err
	}
	lane, _, err := grid.OpenLane(spec.Sweep.JSONL, spec.Sweep.Resume)
	if err != nil {
		return err
	}
	defer lane.Close()

	// The remote runs the same shard decomposition but keeps no local
	// state of ours; JSONL/Resume are meaningless (and hash-neutral:
	// CanonicalSpec strips them) on the wire.
	remote := spec
	rs := *spec.Sweep
	rs.JSONL, rs.Resume = "", false
	remote.Sweep = &rs
	body, err := remote.JSON()
	if err != nil {
		return err
	}

	record := func(raw json.RawMessage) error {
		var rec eval.SweepRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("dispatch: bad wire record: %w", err)
		}
		if err := grid.Validate(rec); err != nil {
			return fmt.Errorf("dispatch: wire record: %w", err)
		}
		fresh, err := lane.Append(rec.Index, rec.Cell)
		if err != nil {
			return err
		}
		if fresh {
			emit(obs, cellDone(grid, rec.Index, &rec.Cell))
		}
		return nil
	}

	payload, _, err := serve.StreamSpec(ctx, t.Base, body, serve.StreamConfig{
		MaxReconnects: t.Reconnects,
		Logf:          t.Logf,
		OnEvent: func(ev serve.WireEvent) error {
			switch ev.Event {
			case "cell-done":
				if len(ev.Record) > 0 {
					return record(ev.Record)
				}
			case "cell-start":
				if ev.Cell != nil && ev.Cell.Index >= 0 && ev.Cell.Index < len(grid.IDs) {
					emit(obs, eval.Event{
						Kind: eval.EventCellStart, Total: len(grid.IDs), Cell: grid.IDs[ev.Cell.Index],
					})
				}
			case "log":
				emit(obs, eval.Event{Kind: eval.EventLog, Msg: ev.Msg})
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	// Backfill: a cache hit streams no cell events at all, and a
	// reconnect may have missed a window; the terminal payload carries
	// the complete record set.
	for _, raw := range payload.Records {
		if err := record(raw); err != nil {
			return err
		}
	}
	return lane.Close()
}
