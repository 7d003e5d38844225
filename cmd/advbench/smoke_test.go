package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestContract runs every workload of BENCHMARK.json, untraced and
// traced, at a tiny scale on the micro preset, and checks that each run
// passes its output checks and prints exactly the metrics the file names
// for its mode, each with the file's unit.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bm.Workloads), len(workloads))
	}
	modes := []struct {
		trace   bool
		metrics []struct{ Name, Unit string }
	}{{false, bm.EndToEnd}, {true, bm.PerLayer}}
	for _, w := range bm.Workloads {
		if raceDetector && strings.HasPrefix(w.Name, "loop-") {
			// The loops run on one goroutine, and the replica test already
			// drives their code under the race detector; at its slowdown
			// they would take minutes.
			t.Logf("%s: skipped under the race detector", w.Name)
			continue
		}
		for _, mode := range modes {
			o := testOptions(w.Name)
			o.trace = mode.trace
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, mode.trace, err)
			}
			line, err := encodeResult(res, mode.trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, mode.trace, err)
			}
			var got struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: result line %s: %v", w.Name, line, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, mode.trace, got.Correct, got.Attempted, got.Failed)
			}
			var want, printed []string
			for _, m := range mode.metrics {
				want = append(want, m.Name)
				if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, BENCHMARK.json unit %q", w.Name, mode.trace, m.Name, g, m.Unit)
				}
			}
			for n := range got.Metrics {
				printed = append(printed, n)
			}
			if len(printed) != len(want) {
				sort.Strings(printed)
				t.Errorf("%s trace=%v: printed %v, BENCHMARK.json names %v", w.Name, mode.trace, printed, want)
			}
			if !mode.trace {
				for _, m := range mode.metrics {
					if got.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Metrics[m.Name].Value)
					}
				}
			} else if cov := got.Metrics["trace.coverage_pct"].Value; cov < 95 || cov > 100.001 {
				t.Errorf("%s: stage self times cover %.2f%% of the traced frame time, want 95..100", w.Name, cov)
			}
		}
	}
}
