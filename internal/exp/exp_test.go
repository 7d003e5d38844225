package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/box"
	"repro/internal/defense"
	"repro/internal/eval"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/regress"
)

var (
	expOnce sync.Once
	testExp *Experiment
)

func sharedExperiment(t testing.TB) *Experiment {
	t.Helper()
	expOnce.Do(func() {
		x, err := New(context.Background(), WithPreset(eval.Micro()))
		if err != nil {
			panic(err)
		}
		testExp = x
	})
	return testExp
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "eval", "testdata", name))
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with go run ./cmd/gengolden): %v", name, err)
	}
	return string(buf)
}

// goldenMatrixSpec addresses the exact grid cmd/gengolden pinned.
func goldenMatrixSpec() Spec {
	return Spec{
		Kind: KindMatrix,
		Matrix: &MatrixSpec{
			Scenarios: []string{"gentle-brake", "highway-cruise"},
			Duration:  0.8, DT: 0.1,
			BaseSeed: 4242,
		},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{
		Version: SpecVersion,
		Kind:    KindSweep,
		Preset:  "quick",
		Matrix: &MatrixSpec{
			Scenarios: []string{"hard-brake"},
			Attacks:   []string{"None", "CAP-Attack"},
			Defenses:  []string{"None", "Median Blurring"},
			Duration:  2.5, DT: 0.05, BaseSeed: 99,
		},
		Sweep: &SweepSpec{Shard: 1, NumShards: 4, JSONL: "cells.jsonl", Resume: true},
	}
	buf, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", s, back)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"kind":"matrix","matrx":{}}`)); err == nil {
		t.Fatal("typo field must be rejected")
	}
	if _, err := ParseSpec([]byte(`{"kind":"matrix"}{"kind":"sweep"}`)); err == nil {
		t.Fatal("trailing content after the spec object must be rejected")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"unknown kind", Spec{Kind: "table9"}, "unknown spec kind"},
		{"unknown preset", Spec{Kind: KindTable1, Preset: "huge"}, "unknown preset"},
		{"bad version", Spec{Version: 9, Kind: KindTable1}, "version"},
		{"matrix section on table", Spec{Kind: KindTable1, Matrix: &MatrixSpec{}}, "no matrix section"},
		{"sweep section on matrix", Spec{Kind: KindMatrix, Sweep: &SweepSpec{}}, "no sweep section"},
		{"unknown scenario", Spec{Kind: KindMatrix, Matrix: &MatrixSpec{Scenarios: []string{"warp-drive"}}}, "unknown scenario"},
		{"unknown attack", Spec{Kind: KindMatrix, Matrix: &MatrixSpec{Attacks: []string{"Nope"}}}, "unknown attack"},
		{"dataset-only attack on axis", Spec{Kind: KindMatrix, Matrix: &MatrixSpec{Attacks: []string{"SimBA"}}}, "no closed-loop runtime form"},
		{"unknown defense", Spec{Kind: KindMatrix, Matrix: &MatrixSpec{Defenses: []string{"Prayer"}}}, "unknown defense"},
		{"negative duration", Spec{Kind: KindMatrix, Matrix: &MatrixSpec{Duration: -1}}, "non-negative"},
		{"shard out of range", Spec{Kind: KindSweep, Sweep: &SweepSpec{Shard: 3, NumShards: 3}}, "out of range"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	ok := goldenMatrixSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestRegistryDuplicatesAndUnknowns(t *testing.T) {
	if err := RegisterAttack(AttackDef{Name: "FGSM"}); err == nil {
		t.Fatal("duplicate attack registration must fail")
	}
	if err := RegisterDefense(DefenseDef{Name: "Median Blurring"}); err == nil {
		t.Fatal("duplicate defense registration must fail")
	}
	if err := RegisterScenario(pipeline.Scenario{Name: "hard-brake"}); err == nil {
		t.Fatal("shadowing a built-in scenario must fail")
	}
	if err := RegisterAttack(AttackDef{}); err == nil {
		t.Fatal("empty attack name must fail")
	}
	if _, ok := LookupAttack("definitely-not-registered"); ok {
		t.Fatal("unknown attack lookup must miss")
	}
	for _, name := range []string{"None", "Gaussian", "FGSM", "Auto-PGD", "SimBA", "RP2", "CAP-Attack"} {
		if _, ok := LookupAttack(name); !ok {
			t.Fatalf("built-in attack %q missing from registry", name)
		}
	}
	for _, name := range []string{"None", "Median Blurring", "DiffPIR", "Randomization", "Bit Depth"} {
		if _, ok := LookupDefense(name); !ok {
			t.Fatalf("built-in defense %q missing from registry", name)
		}
	}
	if got := len(Scenarios()); got < 8 {
		t.Fatalf("scenario registry lists %d names, want >= 8", got)
	}
	if want := []string{"None", "CAP-Attack", "FGSM"}; !reflect.DeepEqual(DefaultMatrixAttacks(), want) {
		t.Fatalf("default attack axis %v, want %v", DefaultMatrixAttacks(), want)
	}
	if want := []string{"None", "Median Blurring", "DiffPIR"}; !reflect.DeepEqual(DefaultMatrixDefenses(), want) {
		t.Fatalf("default defense axis %v, want %v", DefaultMatrixDefenses(), want)
	}
}

// TestSpecRoutedRunsMatchGoldens is the redesign's acceptance pin: the
// spec-addressed runs must be byte-identical to the pre-redesign goldens.
func TestSpecRoutedRunsMatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("byte-pin goldens are compute-heavy; the non-short job runs them")
	}
	x := sharedExperiment(t)
	ctx := context.Background()

	res, err := x.Run(ctx, Spec{Kind: KindTable1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != readGolden(t, "golden_table1.txt") || res.Table1 == nil {
		t.Fatalf("spec-routed table1 diverged from the pre-redesign golden:\n%s", res.Text)
	}

	res, err = x.Run(ctx, Spec{Kind: KindFig2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != readGolden(t, "golden_fig2.txt") || res.Fig2 == nil {
		t.Fatalf("spec-routed fig2 diverged from the pre-redesign golden:\n%s", res.Text)
	}

	res, err = x.Run(ctx, goldenMatrixSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix == nil {
		t.Fatal("matrix result missing")
	}
	if got := res.Matrix.CSV(); got != readGolden(t, "golden_matrix.csv") {
		t.Fatalf("spec-routed matrix diverged from the pre-redesign golden:\n%s", got)
	}

	// The same grid as a single-shard sweep spec.
	sweep := goldenMatrixSpec()
	sweep.Kind = KindSweep
	res, err = x.Run(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep == nil || res.Matrix == nil {
		t.Fatal("sweep result missing payloads")
	}
	if got := res.Matrix.CSV(); got != readGolden(t, "golden_matrix.csv") {
		t.Fatal("spec-routed sweep diverged from the pre-redesign golden")
	}
}

// TestSpecSweepShardsMergeToMatrix: two sweep shards run via specs, then
// Grid.Merge, under the test environment's preset, verifies coverage and
// reassembles the unsharded grid.
func TestSpecSweepShardsMergeToMatrix(t *testing.T) {
	x := sharedExperiment(t)
	ctx := context.Background()
	dir := t.TempDir()

	grid := goldenMatrixSpec()
	grid.Kind = KindSweep
	if testing.Short() {
		// DiffPIR-free axes keep the two shard runs cheap under -race;
		// the merged result is then checked against a direct matrix run
		// instead of the committed golden.
		grid.Matrix.Attacks = []string{"None", "CAP-Attack"}
		grid.Matrix.Defenses = []string{"None", "Median Blurring"}
	}
	paths := []string{filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")}
	for shard, path := range paths {
		s := grid
		s.Sweep = &SweepSpec{Shard: shard, NumShards: 2, JSONL: path}
		if _, err := x.Run(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := grid.matrixConfig()
	if err != nil {
		t.Fatal(err)
	}
	g := eval.NewGrid(cfg, x.env.Preset)
	merged, err := g.Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		m := grid
		m.Kind = KindMatrix
		res, err := x.Run(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if merged.CSV() != res.Matrix.CSV() {
			t.Fatal("merged shard specs diverge from the unsharded grid")
		}
	} else if got := merged.CSV(); got != readGolden(t, "golden_matrix.csv") {
		t.Fatal("merged shard specs diverge from the unsharded golden grid")
	}
	if _, err := g.Merge(paths[:1]); err == nil {
		t.Fatal("merge with a missing shard must be rejected")
	}
}

// TestRegisteredAxesAreRunnable registers a brand-new attack, defense and
// scenario, then addresses them from a spec — diversity as a registration,
// not a code change.
func TestRegisteredAxesAreRunnable(t *testing.T) {
	x := sharedExperiment(t)
	MustRegisterAttack(AttackDef{
		Name: "test-blackout", Description: "zeroes the lead box",
		Runtime: func(e *eval.Env, reg *regress.Regressor, seed int64) pipeline.Attacker {
			return pipeline.AttackerFunc(func(img *imaging.Image, leadBox box.Box) *imaging.Image {
				out := img.Clone()
				lb := leadBox.Clip(float64(img.W), float64(img.H))
				for c := 0; c < out.C; c++ {
					for y := int(lb.Y0); y < int(lb.Y1); y++ {
						for xx := int(lb.X0); xx < int(lb.X1); xx++ {
							if y >= 0 && y < out.H && xx >= 0 && xx < out.W {
								out.Pix[(c*out.H+y)*out.W+xx] = 0
							}
						}
					}
				}
				return out
			})
		},
	})
	MustRegisterDefense(DefenseDef{
		Name: "test-identity",
		New: func(e *eval.Env, seed int64) defense.Preprocessor {
			return defense.NewMedianBlur()
		},
	})
	if err := RegisterScenario(pipeline.Scenario{
		Name:        "test-tailgate",
		Description: "short gap cruise",
		Mutate: func(cfg *pipeline.Config) {
			cfg.InitGap = 12
			cfg.EgoSpeed, cfg.LeadSpeed = 20, 20
		},
		LeadAccel: func(t float64) float64 { return 0 },
	}); err != nil {
		t.Fatal(err)
	}

	s := Spec{
		Kind: KindMatrix,
		Matrix: &MatrixSpec{
			Scenarios: []string{"test-tailgate"},
			Attacks:   []string{"None", "test-blackout", "Auto-PGD"},
			Defenses:  []string{"None", "test-identity"},
			Duration:  0.5, DT: 0.1, BaseSeed: 77,
		},
	}
	res, err := x.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matrix.Cells) != 6 {
		t.Fatalf("registered-axes grid ran %d cells, want 6", len(res.Matrix.Cells))
	}
	names := map[string]bool{}
	for _, c := range res.Matrix.Cells {
		names[c.Attack] = true
		if c.Scenario != "test-tailgate" {
			t.Fatalf("cell scenario %q", c.Scenario)
		}
	}
	if !names["test-blackout"] || !names["Auto-PGD"] {
		t.Fatalf("registered attacks missing from the grid: %v", names)
	}

	// Determinism holds for registered axes too.
	again, err := x.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Matrix.Cells, again.Matrix.Cells) {
		t.Fatal("registered-axes grid must be bit-identical across runs")
	}
}

// TestAutoPGDRuntimeAxisBites: the new closed-loop Auto-PGD axis must
// actually perturb perception (its cells differ from clean cells).
func TestAutoPGDRuntimeAxisBites(t *testing.T) {
	x := sharedExperiment(t)
	s := Spec{
		Kind: KindMatrix,
		Matrix: &MatrixSpec{
			Scenarios: []string{"gentle-brake"},
			Attacks:   []string{"None", "Auto-PGD"},
			Defenses:  []string{"None"},
			Duration:  0.8, DT: 0.1, BaseSeed: 4242,
		},
	}
	res, err := x.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matrix.Cells) != 2 {
		t.Fatalf("cells %d", len(res.Matrix.Cells))
	}
	clean, apgd := res.Matrix.Cells[0], res.Matrix.Cells[1]
	if apgd.Attack != "Auto-PGD" {
		t.Fatalf("second cell attack %q", apgd.Attack)
	}
	// The attacker must actually perturb perception: the perceived-gap
	// trajectory diverges from the clean cell's (the micro victim is too
	// weakly trained to assert error direction, only effect).
	if reflect.DeepEqual(clean.Result.PerceivedGaps, apgd.Result.PerceivedGaps) {
		t.Fatal("Auto-PGD runtime attack left perception untouched")
	}
}

func TestRunChecksPreset(t *testing.T) {
	x := sharedExperiment(t)
	if _, err := x.Run(context.Background(), Spec{Kind: KindTable1, Preset: "quick"}); err == nil {
		t.Fatal("spec addressing a different preset must be rejected")
	}
}

func TestNewOptionErrors(t *testing.T) {
	if _, err := New(context.Background(), WithPresetName("galactic")); err == nil {
		t.Fatal("unknown preset name must fail New")
	}
	x := sharedExperiment(t)
	if _, err := New(context.Background(), WithEnv(x.Env()), WithPreset(eval.Quick())); err == nil {
		t.Fatal("WithEnv conflicting with WithPreset must fail")
	}
	// Adopting the env without a conflicting preset works and shares it.
	y, err := New(context.Background(), WithEnv(x.Env()), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if y.Env() != x.Env() {
		t.Fatal("WithEnv must adopt, not copy")
	}
	y.Env().Workers = 0 // restore for other tests
}

func TestNewCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ctx, WithPreset(eval.Micro())); err == nil {
		t.Fatal("cancelled construction must fail")
	}
}

func TestProgressPrinter(t *testing.T) {
	x := sharedExperiment(t)
	var buf bytes.Buffer
	s := Spec{
		Kind: KindMatrix,
		Matrix: &MatrixSpec{
			Scenarios: []string{"highway-cruise"},
			Attacks:   []string{"None"},
			Defenses:  []string{"None", "Median Blurring"},
			Duration:  0.5, DT: 0.1, BaseSeed: 11,
		},
	}
	y, err := New(context.Background(), WithEnv(x.Env()), WithObserver(&ProgressPrinter{W: &buf}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "run: 2 cells") || !strings.Contains(out, "[2/2]") || !strings.Contains(out, "run complete") {
		t.Fatalf("progress output missing lines:\n%s", out)
	}
}

// TestMergeSpecGridIdentity exercises the env-less merge path's
// validation (quick-preset grid identity, no training required).
func TestMergeSpecGridIdentity(t *testing.T) {
	s := Spec{Kind: KindTable1}
	if _, err := MergeSpec(s, nil); err == nil {
		t.Fatal("merge of a non-grid spec must be rejected")
	}
	grid := goldenMatrixSpec()
	grid.Kind = KindSweep
	grid.Preset = "quick"
	ids, err := grid.CellIDs()
	if err != nil {
		t.Fatal(err)
	}
	// 2 scenarios x default axes (3x3).
	if len(ids) != 18 {
		t.Fatalf("grid identity has %d cells, want 18", len(ids))
	}
	if ids[1].Seed != ids[0].Seed+100003 {
		t.Fatalf("cell seed stride broken: %d then %d", ids[0].Seed, ids[1].Seed)
	}
	if _, err := MergeSpec(grid, []string{filepath.Join(t.TempDir(), "absent.jsonl")}); err == nil {
		t.Fatal("merge with an absent shard file must be rejected")
	}
}

// TestSpecFileOnDiskParses pins the committed CI smoke specs: they must
// parse and validate exactly as the CI job will consume them.
func TestSpecFileOnDiskParses(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs found: %v", err)
	}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(buf); err != nil {
			t.Fatalf("committed spec %s invalid: %v", p, err)
		}
	}
}
