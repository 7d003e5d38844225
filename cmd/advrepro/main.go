// Command advrepro reproduces the experiments of "Revisiting Adversarial
// Perception Attacks and Defense Methods on Autonomous Driving Systems"
// (DSN 2025): it trains the victim models, runs the selected experiment
// and prints the paper-shaped result table.
//
// Every subcommand routes through the v2 experiment core (internal/exp):
// a run is a serializable Spec validated against the attack/defense/
// scenario registries, executed under a cancellable context with observer
// sinks streaming per-cell progress.
//
// Usage:
//
//	advrepro run -spec spec.json [-remote http://host:8799] [-reconnects n] [-artifacts dir] [-shard i/n] [-jsonl f] [-resume] [-progress] [-out report.txt] [-csv grid.csv] [-md grid.md]
//	advrepro serve [-addr 127.0.0.1:8799] [-artifacts dir] [-workers n] [-maxruns n] [-warm quick,paper]
//	advrepro dispatch -spec spec.json [-workers pool:2,exec,http://host:8799] [-shards n] [-checkpoints dir] [-resume] [-heartbeat d] [-retries n] [-hedge-after f] [-hedge-factor f] [-strikes n] [-csv grid.csv] [-out report.txt]
//	advrepro merge -spec spec.json [-out report.txt] [-csv grid.csv] shard0.jsonl shard1.jsonl ...
//	advrepro -preset quick|paper -exp table1|table2|table3|table4|table5|fig2|pipeline|ablations|all [-out report.txt]
//
// run executes any committed spec — a paper table, the scenario matrix,
// or one shard of a sweep (specs/paper_sweep.json is the paper-preset
// sweep) — and is the universal entrypoint. With -remote the spec is
// submitted to a running daemon instead of trained locally; with
// -artifacts trained victim weights are cached on disk and reloaded,
// skipping training on repeat runs.
// Interrupting a checkpointed sweep (Ctrl-C) stops dispatching promptly
// and leaves a JSONL checkpoint a -resume run completes; every
// interrupted invocation exits non-zero with the cancellation cause.
//
// serve starts the long-lived evaluation daemon (see internal/serve):
// POST /run streams a spec's run as NDJSON events and serves repeat
// submissions from a content-addressed result cache keyed by the
// canonical spec hash. -maxruns bounds concurrent computations: requests
// beyond it are shed with 503 + Retry-After (cache hits and joins of an
// in-flight run are always served).
//
// dispatch fans a grid spec's shards over a worker fleet (in-process
// pool, advrepro-run subprocesses, serve daemons) and recovers from
// worker failure automatically: crashed shards re-dispatch with capped
// exponential backoff and resume from their JSONL lane, stragglers hedge
// to a second worker with first-writer-wins dedup, and repeat offenders
// are quarantined. The merged report is byte-identical to an unsharded
// run of the same spec, no matter the failures (see internal/dispatch).
//
// merge joins the JSONL shard files of a distributed sweep back into the
// combined grid report, verifying full grid coverage and per-cell seed
// consistency against the spec's grid identity — no retraining needed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = runSpec(ctx, args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "serve":
		err = runServe(ctx, args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "dispatch":
		err = runDispatch(ctx, args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "merge":
		err = runMerge(args[1:], os.Stdout)
	default:
		err = run(ctx, args, os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseShard parses "i/n" (e.g. "0/4") into shard index and count.
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	part := strings.SplitN(s, "/", 2)
	if len(part) != 2 {
		return 0, 0, fmt.Errorf("shard %q: want i/n (e.g. 0/4)", s)
	}
	i, err1 := strconv.Atoi(part[0])
	n, err2 := strconv.Atoi(part[1])
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("shard %q: want 0 <= i < n", s)
	}
	return i, n, nil
}

// writeOutputs writes the optional report/CSV/markdown files of a result.
func writeOutputs(report, csvPath, mdPath, outPath string, res *exp.Result) error {
	if csvPath != "" {
		if res == nil || res.Matrix == nil {
			return fmt.Errorf("-csv: this run kind has no grid")
		}
		if err := os.WriteFile(csvPath, []byte(res.Matrix.CSV()), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
	}
	if mdPath != "" {
		if res == nil || res.Matrix == nil {
			return fmt.Errorf("-md: this run kind has no grid")
		}
		if err := os.WriteFile(mdPath, []byte(res.Matrix.Markdown()), 0o644); err != nil {
			return fmt.Errorf("write markdown: %w", err)
		}
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
}

// runSpec is the universal subcommand: execute any spec file.
func runSpec(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("advrepro run", flag.ContinueOnError)
	specPath := fs.String("spec", "", "JSON spec addressing the run (required)")
	remote := fs.String("remote", "", "submit the spec to a running daemon at this base URL instead of training locally")
	reconnects := fs.Int("reconnects", 3, "with -remote: mid-stream reconnect budget before giving up")
	artifacts := fs.String("artifacts", "", "trained-model artifact directory (skip victim training on repeat runs)")
	shard := fs.String("shard", "", "override the sweep shard as i/n (sweep specs only)")
	jsonl := fs.String("jsonl", "", "override the sweep JSONL checkpoint path")
	resume := fs.Bool("resume", false, "force checkpoint resume on (sweep specs only)")
	progress := fs.Bool("progress", false, "stream per-cell progress lines to stdout")
	workers := fs.Int("workers", 0, "cap the worker pool (0 = GOMAXPROCS)")
	csvPath := fs.String("csv", "", "optional file for the CSV grid (matrix/sweep specs)")
	mdPath := fs.String("md", "", "optional file for the markdown grid")
	out := fs.String("out", "", "optional file to copy the text report to")
	verbose := fs.Bool("v", false, "log harness progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("run: -spec is required")
	}
	buf, err := os.ReadFile(*specPath)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	spec, err := exp.ParseSpec(buf)
	if err != nil {
		return err
	}
	if *shard != "" {
		if spec.Kind != exp.KindSweep {
			return fmt.Errorf("run: -shard applies to sweep specs, not %q", spec.Kind)
		}
		si, sn, err := parseShard(*shard)
		if err != nil {
			return err
		}
		if spec.Sweep == nil {
			spec.Sweep = &exp.SweepSpec{}
		}
		spec.Sweep.Shard, spec.Sweep.NumShards = si, sn
	}
	if *jsonl != "" {
		if spec.Sweep == nil {
			spec.Sweep = &exp.SweepSpec{}
		}
		spec.Sweep.JSONL = *jsonl
	}
	if *resume {
		if spec.Sweep == nil {
			spec.Sweep = &exp.SweepSpec{}
		}
		spec.Sweep.Resume = true
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	if *remote != "" {
		return runRemoteSpec(ctx, *remote, spec, *progress, *reconnects, *csvPath, *mdPath, *out, stdout)
	}

	opts := []exp.Option{exp.WithPresetName(spec.Preset), exp.WithWorkers(*workers)}
	if *verbose {
		opts = append(opts, exp.WithLogger(func(format string, a ...any) { log.Printf(format, a...) }))
	}
	if *progress {
		opts = append(opts, exp.WithObserver(&exp.ProgressPrinter{W: stdout}))
	}
	if *artifacts != "" {
		opts = append(opts, exp.WithArtifactDir(*artifacts))
	}

	start := time.Now()
	fmt.Fprintf(stdout, "== advrepro run: spec=%s kind=%s preset=%s ==\n", *specPath, spec.Kind, specPreset(spec))
	x, err := exp.New(ctx, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "victims trained in %v; running spec...\n\n", time.Since(start).Round(time.Second))

	res, err := x.Run(ctx, spec)
	if err = interruptErr(ctx, err); err != nil {
		if ctx.Err() != nil && spec.Sweep != nil && spec.Sweep.JSONL != "" {
			fmt.Fprintf(stdout, "run cancelled; finished cells are checkpointed in %s — rerun with -resume to complete\n", spec.Sweep.JSONL)
		}
		return err
	}
	fmt.Fprintln(stdout, res.Text)
	fmt.Fprintf(stdout, "run: kind=%s done in %v\n", spec.Kind, time.Since(start).Round(time.Second))
	return writeOutputs(res.Text, *csvPath, *mdPath, *out, res)
}

// interruptErr surfaces an interrupt the runner absorbed: the table
// runners finish their in-flight section and return nil even when the
// context was cancelled mid-run, but an interrupted invocation must
// still exit non-zero with the cause visible. Grid runners return the
// context error themselves; this helper covers every other path.
func interruptErr(ctx context.Context, err error) error {
	if err == nil && ctx.Err() != nil {
		return fmt.Errorf("cancelled mid-run: %w", ctx.Err())
	}
	return err
}

// specPreset names the spec's preset for display.
func specPreset(s exp.Spec) string {
	if s.Preset == "" {
		return "quick"
	}
	return s.Preset
}

// runMerge joins sweep shard JSONL files against a spec's grid identity.
func runMerge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("advrepro merge", flag.ContinueOnError)
	specPath := fs.String("spec", "", "JSON spec describing the sharded grid (required)")
	csvPath := fs.String("csv", "", "optional file for the merged CSV grid")
	out := fs.String("out", "", "optional file to copy the text report to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("merge: -spec is required")
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("merge: give the shard JSONL files as arguments")
	}
	buf, err := os.ReadFile(*specPath)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	spec, err := exp.ParseSpec(buf)
	if err != nil {
		return err
	}

	rep, err := exp.MergeSpec(spec, paths)
	if err != nil {
		return err
	}
	report := rep.Format()
	fmt.Fprintln(stdout, report)
	fmt.Fprintf(stdout, "merge: %d cells assembled from %d shard files\n", len(rep.Cells), len(paths))
	return writeOutputs(report, *csvPath, "", *out, &exp.Result{Matrix: &rep})
}

// splitNames splits a comma-separated flag value, trimming whitespace.
func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// sectionKinds maps the legacy -exp names to spec kinds, in report order.
var sectionKinds = []string{
	exp.KindTable1, exp.KindFig2, exp.KindTable2, exp.KindTable3,
	exp.KindTable4, exp.KindTable5, exp.KindPipeline, exp.KindAblations,
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("advrepro", flag.ContinueOnError)
	preset := fs.String("preset", "quick", "experiment preset: quick or paper")
	expFlag := fs.String("exp", "all", "experiment: table1..table5, fig2, pipeline, ablations, all")
	out := fs.String("out", "", "optional file to copy the report to")
	verbose := fs.Bool("v", false, "log harness progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand %q (want run, serve, dispatch or merge; grids run through run -spec)", fs.Arg(0))
	}

	want := func(name string) bool { return *expFlag == "all" || *expFlag == name }
	known := *expFlag == "all"
	for _, k := range sectionKinds {
		if *expFlag == k {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want table1..table5, fig2, pipeline, ablations or all)", *expFlag)
	}

	var sink io.Writer = stdout
	var file *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create report: %w", err)
		}
		file = f
		sink = io.MultiWriter(stdout, f)
	}

	opts := []exp.Option{exp.WithPresetName(*preset)}
	if *verbose {
		opts = append(opts, exp.WithLogger(func(format string, a ...any) { log.Printf(format, a...) }))
	}

	start := time.Now()
	fmt.Fprintf(sink, "== advrepro: preset=%s exp=%s ==\n", *preset, *expFlag)
	x, err := exp.New(ctx, opts...)
	if err != nil {
		return err
	}
	env := x.Env()
	clean := env.Det.Evaluate(env.SignTestSet, 0.5)
	fmt.Fprintf(sink, "victims: clean detection mAP50=%.2f%% P=%.2f%% R=%.2f%%; regression RMSE=%.2f m (built in %v)\n\n",
		100*clean.MAP50, 100*clean.Precision, 100*clean.Recall, env.Reg.RMSE(env.DriveTest), time.Since(start).Round(time.Second))

	for _, kind := range sectionKinds {
		if !want(kind) {
			continue
		}
		t0 := time.Now()
		res, err := x.Run(ctx, exp.Spec{Kind: kind, Preset: *preset})
		if err = interruptErr(ctx, err); err != nil {
			return err
		}
		fmt.Fprintln(sink, res.Text)
		fmt.Fprintf(sink, "(%s completed in %v)\n\n", kind, time.Since(t0).Round(time.Second))
	}

	fmt.Fprintf(sink, "total: %v\n", time.Since(start).Round(time.Second))
	if file != nil {
		return file.Close()
	}
	return nil
}
