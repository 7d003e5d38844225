// Scenario matrix, v2 API: build the Experiment core once, then address
// the closed-loop safety grid with a serializable Spec — every registered
// driving scenario against the runtime attack and defense axes, streamed
// through a progress Observer. The -apgd flag widens the attack axis with
// the registry's closed-loop Auto-PGD column: an axis is a spec entry,
// not a code change.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	advp "repro"
)

func main() {
	duration := flag.Float64("duration", 8, "seconds simulated per cell")
	apgd := flag.Bool("apgd", false, "add the closed-loop Auto-PGD attack column")
	flag.Parse()

	if err := run(context.Background(), os.Stdout, advp.Quick(), *duration, *apgd); err != nil {
		log.Fatal(err)
	}
}

// run trains the victims under the preset and runs the grid with
// duration seconds per cell, writing progress and the report to w.
func run(ctx context.Context, w io.Writer, p advp.Preset, duration float64, apgd bool) error {
	start := time.Now()
	fmt.Fprintf(w, "training victim models (%s preset)...\n", p.Name)
	x, err := advp.NewExperiment(ctx,
		advp.WithPreset(p),
		advp.WithObserver(&advp.ProgressPrinter{W: w}))
	if err != nil {
		return err
	}

	spec := advp.Spec{
		Kind:   advp.SpecMatrix,
		Matrix: &advp.MatrixSpec{Duration: duration},
	}
	if apgd {
		spec.Matrix.Attacks = []string{"None", "CAP-Attack", "FGSM", "Auto-PGD"}
	}

	fmt.Fprintf(w, "running %d scenarios x attacks x defenses...\n\n", len(advp.ScenarioNames()))
	res, err := x.Run(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res.Text)
	fmt.Fprintf(w, "%d cells in %v\n", len(res.Matrix.Cells), time.Since(start).Round(time.Second))
	return nil
}
