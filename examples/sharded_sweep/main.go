// Sharded sweep, v2 API: run the scenario × attack × defense grid through
// the checkpointed sweep runtime, addressed by a Spec. The grid is split
// into shards (every n-th cell, seeds derived from the global cell index),
// each finished cell streams to a JSONL checkpoint, and an interrupted run
// — Ctrl-C cancels the context — resumes from the checkpoint. With
// -merge, shard files written by previous runs (pass them as arguments)
// are joined back into the verified full grid, the multi-machine assembly
// step; merging needs no trained models.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"time"

	advp "repro"
)

func main() {
	duration := flag.Float64("duration", 4, "seconds simulated per cell")
	shard := flag.Int("shard", 0, "shard index")
	shards := flag.Int("shards", 2, "total shards")
	jsonl := flag.String("jsonl", "sweep_cells.jsonl", "checkpoint stream")
	merge := flag.Bool("merge", false, "merge the shard files given as arguments instead of running")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, advp.Quick(), *duration, *shard, *shards, *jsonl, *merge, flag.Args()); err != nil {
		log.Fatal(err)
	}
}

// run runs one shard of the grid under the preset, checkpointing to
// jsonl, or with merge joins the shard files into the full grid; it
// writes progress and the report to w.
func run(ctx context.Context, w io.Writer, p advp.Preset, duration float64, shard, shards int, jsonl string, merge bool, files []string) error {
	// An empty spec preset addresses whichever environment run trains.
	// A merge takes the grid identity from the spec alone, where it
	// means the quick preset.
	spec := advp.Spec{
		Kind:   advp.SpecSweep,
		Matrix: &advp.MatrixSpec{Duration: duration},
		Sweep: &advp.SweepSpec{
			Shard: shard, NumShards: shards,
			JSONL: jsonl, Resume: true,
		},
	}

	if merge {
		// Merging verifies coverage and per-cell seeds without training
		// anything.
		rep, err := advp.MergeSweeps(spec, files)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.Format())
		fmt.Fprintf(w, "merged %d cells from %d shard files\n", len(rep.Cells), len(files))
		return nil
	}

	start := time.Now()
	fmt.Fprintf(w, "training victim models (%s preset)...\n", p.Name)
	x, err := advp.NewExperiment(ctx, advp.WithPreset(p))
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "running shard %d/%d of a %d-scenario grid (checkpoint: %s)...\n\n",
		shard, shards, len(advp.ScenarioNames()), jsonl)
	res, err := x.Run(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(w, "interrupted; finished cells are in %s — run again to resume\n", jsonl)
			return nil
		}
		return err
	}

	rep := res.Sweep
	fmt.Fprintln(w, res.Text)
	fmt.Fprintf(w, "shard %d/%d: %d cells run, %d resumed from checkpoint, grid total %d, in %v\n",
		rep.Shard, rep.NumShards, len(rep.Cells)-rep.Resumed, rep.Resumed, rep.Total,
		time.Since(start).Round(time.Second))
	return nil
}
