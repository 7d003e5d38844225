package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/exp"
)

// runDispatch is the fleet orchestrator subcommand: fan a sweep spec's
// shards over a worker fleet, survive worker failures (retry with
// backoff, hedge stragglers, quarantine repeat offenders), and emit a
// merged report byte-identical to an unsharded run.
func runDispatch(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("advrepro dispatch", flag.ContinueOnError)
	specPath := fs.String("spec", "", "JSON spec addressing the grid (required; matrix or sweep kind)")
	workers := fs.String("workers", "pool:2", "comma-separated worker fleet: pool:N (in-process), exec[:BIN] (subprocess advrepro run), http://host:port (serve daemon)")
	shards := fs.Int("shards", 0, "grid decomposition width (0 = one shard per worker)")
	checkpoints := fs.String("checkpoints", ".dispatch", "directory for per-shard JSONL lane files")
	transport := fs.String("transport", "fs", "checkpoint transport: fs (local lane files only) or store:DIR|URL (every record durable in object-store segments, local dir or serve daemon)")
	resume := fs.Bool("resume", false, "recover a crashed dispatch session from its lane files (or their transport replica)")
	heartbeat := fs.Duration("heartbeat", 2*time.Minute, "per-attempt liveness timeout (no event for this long = presumed hung)")
	retries := fs.Int("retries", 4, "max dispatch attempts per shard")
	hedgeAfter := fs.Float64("hedge-after", 0.5, "completed-shard fraction that arms straggler hedging (>=1 disables)")
	hedgeFactor := fs.Float64("hedge-factor", 2.0, "straggler threshold as a multiple of the median shard duration")
	strikes := fs.Int("strikes", 2, "failed attempts before a worker is quarantined")
	artifacts := fs.String("artifacts", "", "trained-model artifact directory (pool/exec workers)")
	inject := fs.String("inject", "", "fault-injection directives, fault:worker[@N] (kill|hang|dial|dup|torn) — testing only")
	injectStore := fs.String("injectstore", "", "store-fault directives, fault[:N] (outage|torn|dup) — store transport only, testing only")
	progress := fs.Bool("progress", false, "stream per-cell progress lines to stdout")
	csvPath := fs.String("csv", "", "optional file for the merged CSV grid")
	mdPath := fs.String("md", "", "optional file for the merged markdown grid")
	out := fs.String("out", "", "optional file to copy the text report to")
	reconnects := fs.Int("reconnects", 3, "mid-stream reconnect budget per attempt (http workers)")
	verbose := fs.Bool("v", false, "log dispatch decisions to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("dispatch: -spec is required")
	}
	spec, err := loadSpecFile(*specPath)
	if err != nil {
		return err
	}
	if spec.Kind != exp.KindSweep && spec.Kind != exp.KindMatrix {
		return fmt.Errorf("dispatch: spec kind %q has no grid to shard", spec.Kind)
	}

	wspecs, err := parseWorkerList(*workers)
	if err != nil {
		return err
	}
	ckpt, err := dispatch.ParseCheckpointTransport(*transport)
	if err != nil {
		return err
	}
	if *injectStore != "" {
		injs, err := dispatch.ParseStoreInjections(*injectStore)
		if err != nil {
			return err
		}
		if err := dispatch.ApplyStoreInjections(ckpt, injs); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dispatch: store fault injection armed: %s\n", *injectStore)
	}
	logf := func(format string, a ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { log.Printf(format, a...) }
	}

	start := time.Now()
	fleet, err := buildWorkers(ctx, wspecs, workerBuildConfig{
		preset: spec.Preset, artifacts: *artifacts,
		reconnects: *reconnects, verbose: *verbose, logf: logf,
		ckpt: ckpt,
	})
	if err != nil {
		return err
	}
	if *inject != "" {
		injs, err := dispatch.ParseInjections(*inject)
		if err != nil {
			return err
		}
		if err := dispatch.ApplyInjections(fleet, injs); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dispatch: fault injection armed: %s\n", *inject)
	}

	cfg := dispatch.Config{
		Spec: spec, Workers: fleet,
		NumShards: *shards, Dir: *checkpoints, Resume: *resume,
		Checkpoints: ckpt,
		Heartbeat:   *heartbeat, MaxAttempts: *retries,
		HedgeAfter: *hedgeAfter, HedgeFactor: *hedgeFactor,
		MaxStrikes: *strikes, Logf: logf,
	}
	if *progress {
		cfg.Observer = &exp.ProgressPrinter{W: stdout}
	}

	fmt.Fprintf(stdout, "== advrepro dispatch: spec=%s kind=%s workers=%d shards=%d checkpoints=%s transport=%s ==\n",
		*specPath, spec.Kind, len(fleet), cfg.NumShards, *checkpoints, *transport)
	rep, err := dispatch.Run(ctx, cfg)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(stdout, "dispatch cancelled; finished cells are checkpointed in %s — rerun with -resume to complete\n", *checkpoints)
		}
		return err
	}

	fmt.Fprintln(stdout, rep.Text)
	quarantined := "none"
	if len(rep.Quarantined) > 0 {
		quarantined = strings.Join(rep.Quarantined, ",")
	}
	fmt.Fprintf(stdout, "dispatch: %d cells over %d shards in %v (%d resumed, %d fetched via %s, %d retries, %d hedges, quarantined: %s)\n",
		len(rep.Matrix.Cells), rep.Shards, time.Since(start).Round(time.Second),
		rep.Resumed, rep.Fetched, rep.Transport, rep.Retries, rep.Hedges, quarantined)
	return writeOutputs(rep.Text, *csvPath, *mdPath, *out, &exp.Result{Matrix: &rep.Matrix})
}

// loadSpecFile reads and validates a spec file.
func loadSpecFile(path string) (exp.Spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return exp.Spec{}, fmt.Errorf("read spec: %w", err)
	}
	return exp.ParseSpec(buf)
}

// workerSpec is one parsed -workers entry.
type workerSpec struct {
	kind  string // "pool", "exec", "http"
	count int    // pool slot count
	value string // exec binary path or http base URL
}

// parseWorkerList parses the -workers fleet grammar: pool:N spawns N
// in-process workers over one shared experiment, exec[:BIN] a subprocess
// worker (default: this binary), and an http(s):// URL a serve-daemon
// worker. Entries are comma-separated and compose freely.
func parseWorkerList(s string) ([]workerSpec, error) {
	var out []workerSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		switch {
		case part == "pool":
			out = append(out, workerSpec{kind: "pool", count: 1})
		case strings.HasPrefix(part, "pool:"):
			n, err := strconv.Atoi(part[len("pool:"):])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("dispatch: -workers %q: pool wants a positive count", part)
			}
			out = append(out, workerSpec{kind: "pool", count: n})
		case part == "exec":
			out = append(out, workerSpec{kind: "exec"})
		case strings.HasPrefix(part, "exec:"):
			bin := part[len("exec:"):]
			if bin == "" {
				return nil, fmt.Errorf("dispatch: -workers %q: exec wants a binary path", part)
			}
			out = append(out, workerSpec{kind: "exec", value: bin})
		case strings.HasPrefix(part, "http://"), strings.HasPrefix(part, "https://"):
			out = append(out, workerSpec{kind: "http", value: part})
		default:
			return nil, fmt.Errorf("dispatch: -workers %q: want pool:N, exec[:BIN] or http://host:port", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dispatch: -workers names no workers")
	}
	return out, nil
}

// workerBuildConfig carries the environment worker construction needs.
type workerBuildConfig struct {
	preset     string
	artifacts  string
	reconnects int
	verbose    bool
	logf       func(format string, a ...any)
	ckpt       *dispatch.StoreTransport
}

// buildWorkers materialises a parsed fleet: pool entries share ONE
// locally trained experiment (victims train once, each slot is a worker
// over it), exec entries spawn `advrepro run` subprocesses, http entries
// stream from serve daemons.
func buildWorkers(ctx context.Context, specs []workerSpec, bc workerBuildConfig) ([]dispatch.Worker, error) {
	var fleet []dispatch.Worker
	var pool *exp.Experiment
	for _, ws := range specs {
		switch ws.kind {
		case "pool":
			if pool == nil {
				opts := []exp.Option{exp.WithPresetName(bc.preset)}
				if bc.verbose {
					opts = append(opts, exp.WithLogger(bc.logf))
				}
				if bc.artifacts != "" {
					opts = append(opts, exp.WithArtifactDir(bc.artifacts))
				}
				x, err := exp.New(ctx, opts...)
				if err != nil {
					return nil, err
				}
				pool = x
			}
			for i := 0; i < ws.count; i++ {
				fleet = append(fleet, dispatch.Worker{
					Name:      fmt.Sprintf("pool%d", len(fleet)),
					Transport: &dispatch.PoolTransport{X: pool},
				})
			}
		case "exec":
			var args []string
			if bc.artifacts != "" {
				args = append(args, "-artifacts", bc.artifacts)
			}
			fleet = append(fleet, dispatch.Worker{
				Name:      fmt.Sprintf("exec%d", len(fleet)),
				Transport: &dispatch.ExecTransport{Binary: ws.value, Args: args, Checkpoints: bc.ckpt},
			})
		case "http":
			fleet = append(fleet, dispatch.Worker{
				Name: ws.value,
				Transport: &dispatch.HTTPTransport{
					Base: ws.value, Reconnects: bc.reconnects, Logf: bc.logf,
				},
			})
		}
	}
	return fleet, nil
}
