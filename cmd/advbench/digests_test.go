package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestCommittedDigests checks testdata/digests.json: it parses, and it
// holds one SHA-256 for every output each workload checks at the digest
// seed, and nothing else.
func TestCommittedDigests(t *testing.T) {
	rounds := func(n int) []string {
		var out []string
		for r := 0; r < n; r++ {
			out = append(out, fmt.Sprintf("round/%d", r))
		}
		return out
	}
	hot, cold, err := requestMix(digestSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []string
	for _, s := range append(hot, cold...) {
		specs = append(specs, s.name)
	}
	want := map[string][]string{
		"loop-classical": rounds(loopSeedCycle),
		"loop-heavy":     rounds(loopSeedCycle),
		"grid-quick":     rounds(gridSeedCycle),
		"serve-mixed":    specs,
	}
	if len(want) != len(workloads) {
		t.Fatalf("test knows %d workloads, the code has %d", len(want), len(workloads))
	}
	for _, w := range workloads {
		d, err := committedDigests(options{workload: w.name, seed: digestSeed, preset: eval.Quick(), scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k, v := range d {
			keys = append(keys, k)
			if len(v) != 64 || strings.Trim(v, "0123456789abcdef") != "" {
				t.Errorf("%s %s: %q is not a hex SHA-256", w.name, k, v)
			}
		}
		sort.Strings(keys)
		wantKeys := append([]string(nil), want[w.name]...)
		sort.Strings(wantKeys)
		if strings.Join(keys, ",") != strings.Join(wantKeys, ",") {
			t.Errorf("%s: committed keys %v, want %v", w.name, keys, wantKeys)
		}
	}

	if d, err := committedDigests(options{workload: "loop-heavy", seed: digestSeed + 1, preset: eval.Quick(), scale: 1}); d != nil || err != nil {
		t.Errorf("another seed: got %v, %v; want no committed digests", d, err)
	}
	saved := digestFile
	defer func() { digestFile = saved }()
	digestFile = []byte(`{"loop-heavy": {"round/0": "00"}`)
	if _, err := committedDigests(options{workload: "loop-heavy", seed: digestSeed, preset: eval.Quick(), scale: 1}); err == nil {
		t.Error("a digests file that does not parse: want an error")
	}
	digestFile = []byte(`{"loop-heavy": {"round/0": "00"}}`)
	if _, err := committedDigests(options{workload: "grid-quick", seed: digestSeed, preset: eval.Quick(), scale: 1}); err == nil {
		t.Error("a digests file without the workload: want an error")
	}
}

// TestCheckerRejectsUncoveredOutputs checks that with committed digests an
// output under a key they do not cover fails, and that without them a
// repeated key must repeat its digest.
func TestCheckerRejectsUncoveredOutputs(t *testing.T) {
	c := newChecker(digests{"round/0": "aa"})
	if !c.check("round/0", "aa") || c.check("round/0", "bb") || c.check("round/1", "aa") {
		t.Error("committed digests: want round/0=aa accepted, a different digest and an unknown key refused")
	}
	c = newChecker(nil)
	if !c.check("round/0", "aa") || !c.check("round/0", "aa") || c.check("round/0", "bb") {
		t.Error("internal checks: want a repeated key to need its first digest")
	}
}
