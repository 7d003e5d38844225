// Command gengolden regenerates the pinned golden outputs the experiment
// redesign tests compare the legacy entrypoints against
// (internal/eval/testdata/golden_*). The goldens were produced by the
// pre-redesign runners; regenerate them ONLY when a deliberate numeric
// change is being made, never to paper over an accidental divergence.
//
// Usage: go run ./cmd/gengolden
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/eval"
	"repro/internal/pipeline"
)

// microPreset mirrors the eval test suite's preset exactly: the golden
// files pin the outputs the tests recompute under the same configuration.
func microPreset() eval.Preset {
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

func main() {
	dir := filepath.Join("internal", "eval", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	env := eval.NewEnv(microPreset())

	write := func(name, content string) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(content))
	}

	write("golden_table1.txt", env.RunTableI().Format())
	write("golden_fig2.txt", env.RunFig2().Format())

	gentle, ok := pipeline.FindScenario("gentle-brake")
	if !ok {
		log.Fatal("gentle-brake missing from registry")
	}
	cruise, ok := pipeline.FindScenario("highway-cruise")
	if !ok {
		log.Fatal("highway-cruise missing from registry")
	}
	cfg := eval.MatrixConfig{
		Scenarios: []pipeline.Scenario{gentle, cruise},
		Duration:  0.8, DT: 0.1,
		BaseSeed: 4242,
	}
	rep, err := env.RunMatrixCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	write("golden_matrix.csv", rep.CSV())
}
