package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/detect"
	"repro/internal/nn"
	"repro/internal/regress"
	"repro/internal/xrand"
)

// collectLogf returns a concurrency-safe log sink and a getter for the
// joined text.
func collectLogf() (func(string, ...any), func() string) {
	var mu sync.Mutex
	var b strings.Builder
	logf := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(&b, format+"\n", args...)
		mu.Unlock()
	}
	return logf, func() string { mu.Lock(); defer mu.Unlock(); return b.String() }
}

// assertSameParams fails unless both parameter lists hold bit-identical
// float32 data.
func assertSameParams(t *testing.T, label string, got, want []*nn.Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i].Value.Data(), want[i].Value.Data()
		if len(g) != len(w) {
			t.Fatalf("%s: param %d size %d, want %d", label, i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: param %d differs at %d (%v != %v)", label, i, j, g[j], w[j])
			}
		}
	}
}

func TestModelStoreRoundTripBitIdentity(t *testing.T) {
	store, err := NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := Micro()
	e := sharedEnv(t) // trained victims to serialize

	if err := store.SaveDetector(e.Det, p); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveRegressor(e.Reg, p); err != nil {
		t.Fatal(err)
	}

	// Fresh untrained networks, then restore: every parameter must match
	// the trained ones bit for bit.
	rng := xrand.New(999)
	det := detect.New(rng.Split(), e.SignCfg.Size)
	if warm, err := store.LoadDetector(det, p); err != nil || !warm {
		t.Fatalf("detector load: warm=%v err=%v", warm, err)
	}
	assertSameParams(t, "detector", det.Net.Params(), e.Det.Net.Params())
	reg := regress.New(rng.Split(), e.DriveCfg.Size)
	if warm, err := store.LoadRegressor(reg, p); err != nil || !warm {
		t.Fatalf("regressor load: warm=%v err=%v", warm, err)
	}
	assertSameParams(t, "regressor", reg.Net.Params(), e.Reg.Net.Params())

	// A different preset (different seed) is a cold miss, never a false hit.
	other := p
	other.Seed = p.Seed + 1
	if warm, err := store.LoadDetector(det, other); err != nil || warm {
		t.Fatalf("foreign preset must miss: warm=%v err=%v", warm, err)
	}
	// Architecture version and kind are part of the key.
	if store.DetectorKey(p) == store.RegressorKey(p) {
		t.Fatal("detector and regressor share a key")
	}
	if !strings.Contains(store.DetectorKey(p), fmt.Sprintf("_v%d_", detect.ArchVersion)) {
		t.Fatalf("detector key %q lacks the architecture version", store.DetectorKey(p))
	}
}

// TestArtifactKeysForAnyPresetName: a preset whose name holds a path
// separator and a space trains once and then warm-starts; an overlong
// name still yields a valid blob key; the built-in presets keep the keys
// their existing artifact directories hold.
func TestArtifactKeysForAnyPresetName(t *testing.T) {
	var keys *ModelStore
	for got, want := range map[string]string{
		keys.DetectorKey(Quick()):  "det_v1_quick_seed7_2775df6b68b99748.weights",
		keys.RegressorKey(Quick()): "reg_v1_quick_seed7_2775df6b68b99748.weights",
		keys.DetectorKey(Paper()):  "det_v1_paper_seed7_a342279d04de5449.weights",
		keys.RegressorKey(Paper()): "reg_v1_paper_seed7_a342279d04de5449.weights",
	} {
		if got != want {
			t.Errorf("key %q, want %q", got, want)
		}
	}

	dir := t.TempDir()
	p := Micro()
	p.Name = "a/b c"
	trains := 0
	for run := 0; run < 2; run++ {
		store, err := NewModelStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		d := detect.New(xrand.New(int64(run)), 64)
		trained, err := store.EnsureDetector(d, p, func() error {
			trains++
			fillParams(d)
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if trained != (run == 0) {
			t.Fatalf("run %d: trained=%v, want a cold train then a warm start", run, trained)
		}
	}
	if trains != 1 {
		t.Fatalf("train ran %d times, want 1", trains)
	}
	key := keys.DetectorKey(p)
	if !strings.HasPrefix(key, "det_v1_a_b_c_seed") {
		t.Fatalf("key %q does not map the name to the key alphabet", key)
	}
	if _, err := os.Stat(filepath.Join(dir, key)); err != nil {
		t.Fatalf("artifact not at <dir>/<key>: %v", err)
	}

	p.Name = strings.Repeat("n", 600)
	if key := keys.DetectorKey(p); !blob.ValidStoreKey(key) {
		t.Fatalf("overlong preset name gives an invalid key %q", key)
	}
}

func TestModelStoreConcurrentSaveLoad(t *testing.T) {
	store, err := NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := Micro()
	e := sharedEnv(t)

	// Concurrent savers of one key race benignly (atomic rename of
	// identical bytes); concurrent loaders must only ever observe a
	// complete artifact or a miss. Run under -race.
	var wg sync.WaitGroup
	rng := xrand.New(7)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := store.SaveDetector(e.Det, p); err != nil {
					t.Errorf("save: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			det := detect.New(xrand.New(seed), e.SignCfg.Size)
			for i := 0; i < 5; i++ {
				if _, err := store.LoadDetector(det, p); err != nil {
					t.Errorf("load: %v", err)
					return
				}
			}
		}(rng.Int63())
	}
	wg.Wait()
}

func TestNewEnvCachedWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a second environment")
	}
	store, err := NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := Micro()
	ctx := context.Background()

	coldLogf, coldLog := collectLogf()
	cold, err := NewEnvCached(ctx, p, coldLogf, store)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldLog(), "epoch") {
		t.Fatalf("cold build trained nothing:\n%s", coldLog())
	}
	if strings.Contains(coldLog(), "warm start") {
		t.Fatalf("cold build claims a warm start:\n%s", coldLog())
	}

	warmLogf, warmLog := collectLogf()
	warm, err := NewEnvCached(ctx, p, warmLogf, store)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(warmLog(), "epoch") {
		t.Fatalf("warm build trained anyway:\n%s", warmLog())
	}
	for _, want := range []string{
		"detector warm start from artifact", "regressor warm start from artifact", "training skipped",
	} {
		if !strings.Contains(warmLog(), want) {
			t.Fatalf("warm build log lacks %q:\n%s", want, warmLog())
		}
	}

	// The warm-started environment is bit-identical to the trained one.
	assertSameParams(t, "warm detector", warm.Det.Net.Params(), cold.Det.Net.Params())
	assertSameParams(t, "warm regressor", warm.Reg.Net.Params(), cold.Reg.Net.Params())
	if warm.Reg.RMSE(warm.DriveTest) != cold.Reg.RMSE(cold.DriveTest) {
		t.Fatal("warm and cold regressors disagree on the test set")
	}
}
