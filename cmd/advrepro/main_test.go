package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
)

func TestInterruptErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := interruptErr(ctx, nil); err != nil {
		t.Fatalf("live context produced %v", err)
	}
	sentinel := fmt.Errorf("runner error")
	if err := interruptErr(ctx, sentinel); err != sentinel {
		t.Fatalf("existing error rewritten to %v", err)
	}
	cancel()
	err := interruptErr(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context produced %v, want context.Canceled", err)
	}
	if err := interruptErr(ctx, sentinel); err != sentinel {
		t.Fatalf("cancellation must not mask the runner's own error, got %v", err)
	}
}

// cancelOnMatch is an io.Writer that cancels a context the first time a
// marker string flows through it — the deterministic stand-in for a
// user pressing Ctrl-C mid-run.
type cancelOnMatch struct {
	mu     sync.Mutex
	w      io.Writer
	marker string
	cancel context.CancelFunc
	fired  bool
}

func (c *cancelOnMatch) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fired && strings.Contains(string(p), c.marker) {
		c.fired = true
		c.cancel()
	}
	return c.w.Write(p)
}

// TestRunSpecInterruptExitsNonZero is the SIGINT regression test: a run
// whose context cancels mid-grid must return a context error (non-zero
// exit through main's log.Fatal), never a silent success. The context is
// cancelled deterministically by the first -progress cell line; with
// -workers 1 the serial dispatch loop observes the cancellation before
// the next cell.
func TestRunSpecInterruptExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the quick preset (~1 min)")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	stdout := &cancelOnMatch{w: &buf, marker: "] cell ", cancel: cancel}

	err := runSpec(ctx, []string{
		"-spec", "../../specs/quick_matrix.json",
		"-progress", "-workers", "1",
	}, stdout)
	if err == nil {
		t.Fatalf("interrupted run returned nil; output:\n%s", buf.String())
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if !stdout.fired {
		t.Fatal("test never observed a progress cell line")
	}
	// The run was cut short: the 27-cell grid must not have completed.
	if n := strings.Count(buf.String(), "] cell "); n >= 27 {
		t.Fatalf("run executed all %d cells despite cancellation", n)
	}
}

// TestPaperSweepSpecMatchesLegacyFlag pins specs/paper_sweep.json to the
// spec the former `sweep -preset paper -paper-sweep` flag built, shard
// for shard: the same content hash addresses the same grid, cache entries
// and store replica.
func TestPaperSweepSpecMatchesLegacyFlag(t *testing.T) {
	committed, err := loadSpecFile("../../specs/paper_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []struct{ i, n int }{{0, 1}, {1, 4}} {
		legacy := exp.Spec{
			Kind:   exp.KindSweep,
			Preset: "paper",
			Matrix: &exp.MatrixSpec{BaseSeed: 424243},
			Sweep: &exp.SweepSpec{
				Shard: sh.i, NumShards: sh.n, Resume: true,
				JSONL: fmt.Sprintf("sweep_paper_shard%d_of_%d.jsonl", sh.i, sh.n),
			},
		}
		spec := committed
		sw := *committed.Sweep
		sw.Shard, sw.NumShards = sh.i, sh.n // what run -shard i/n overrides
		spec.Sweep = &sw
		got, err := exp.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exp.SpecHash(legacy)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shard %d/%d: specs/paper_sweep.json hashes to %s, the -paper-sweep spec to %s", sh.i, sh.n, got, want)
		}
	}
}

// TestUnknownSubcommandFailsFast: a word the dispatcher does not know
// (such as the former matrix/sweep subcommands) is an error before any
// training, not a silent run of every table.
func TestUnknownSubcommandFailsFast(t *testing.T) {
	for _, sub := range []string{"matrix", "sweep"} {
		err := run(context.Background(), []string{sub, "-preset", "quick"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Fatalf("advrepro %s: err = %v, want an unknown-subcommand error", sub, err)
		}
	}
}
