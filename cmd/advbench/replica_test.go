package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// microPreset is the tiny preset of this package's tests: it trains in
// about a second, and its frames run the same code as the quick preset's.
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

// testWorkdir holds the micro artifacts every test of the package shares.
var testWorkdir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "advbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testWorkdir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testOptions(workload string) options {
	return options{
		workload: workload, seed: 2, preset: microPreset(), workdir: testWorkdir,
		scale: 0.3, setups: 2, minRounds: 1, log: io.Discard,
	}
}

var (
	microOnce  sync.Once
	microBench *bench
	microErr   error
)

// sharedMicro is one micro set-up without a prior, so DiffPIR cells build
// through the registry's factory.
func sharedMicro(t *testing.T) *bench {
	t.Helper()
	microOnce.Do(func() {
		microBench, _, microErr = setup(context.Background(), testOptions(""), workload{}, nil)
	})
	if microErr != nil {
		t.Fatal(microErr)
	}
	return microBench
}

// TestReplicaMatchesPipelineRun pins the traced replica to pipeline.Run
// over every runtime-capable registered attack, every registered defense
// and every scenario, so the replica cannot drift when the loop changes.
func TestReplicaMatchesPipelineRun(t *testing.T) {
	b := sharedMicro(t)
	var attacks []string
	for _, name := range exp.Attacks() {
		if d, _ := exp.LookupAttack(name); d.RuntimeCapable() {
			attacks = append(attacks, name)
		}
	}
	if len(attacks) < 2 || len(exp.Defenses()) < 2 {
		t.Fatalf("registries too small: %v x %v", attacks, exp.Defenses())
	}
	b.env.Diffusion() // train the micro prior once, before the parallel subtests
	for ai, at := range attacks {
		for di, df := range exp.Defenses() {
			seed := int64(1000*ai + 100*di + 1)
			t.Run(at+"/"+df, func(t *testing.T) {
				t.Parallel()
				for si, sc := range exp.Scenarios() {
					c := cell{id: eval.CellID{Seed: seed + int64(si), Scenario: sc, Attack: at, Defense: df}, duration: 0.5, dt: 0.25}
					want, got, tr := runBoth(t, b, c)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: traced replica differs from pipeline.Run", sc)
					}
					frames := tr.layers()[spanFrame]
					if frames == nil || frames.calls != len(want.Times) {
						t.Fatalf("%s: %v frame spans for %d frames", sc, frames, len(want.Times))
					}
				}
			})
		}
	}
}

// runBoth runs one cell through pipeline.Run and through the traced
// replica, each with fresh attacker and defense state.
func runBoth(t *testing.T, b *bench, c cell) (want, got sim.Result, tr *tracer) {
	t.Helper()
	r := b.env.Reg.Clone()
	cfg, err := b.config(r, c)
	if err != nil {
		t.Fatal(err)
	}
	want = pipeline.Run(cfg)
	if cfg, err = b.config(r, c); err != nil {
		t.Fatal(err)
	}
	tr = newTracer()
	var id int64
	got = tracedRun(cfg, cellSpans(c.id), tr, func() int64 { id++; return id })
	return want, got, tr
}

// TestStoredPriorMatchesRegistry checks that DiffPIR restoring through the
// prior loaded from the artifact store gives the cells the registry's
// DiffPIR factory gives through the env's trained prior.
func TestStoredPriorMatchesRegistry(t *testing.T) {
	registry := sharedMicro(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ { // the first call stores the prior, the second loads it
		prior, err := loadPrior(registry.env, dir)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && prior == registry.env.Diffusion() {
			t.Fatal("second call did not load the stored prior")
		}
		stored := &bench{opts: registry.opts, env: registry.env, prior: prior}
		for _, at := range []string{"None", "CAP-Attack"} {
			c := cell{id: eval.CellID{Seed: 77, Scenario: "fog-brake", Attack: at, Defense: "DiffPIR"}, duration: 0.3, dt: 0.1}
			want, _, _ := runBoth(t, registry, c)
			got, _, _ := runBoth(t, stored, c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d, %s: DiffPIR through the stored prior differs from the registry's", i, at)
			}
		}
	}
}
