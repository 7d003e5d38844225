package exp

import (
	"strings"
	"testing"
)

// The canonicalization suite pins the serving layer's cache-key
// semantics without training anything: syntactic degrees of freedom
// (field order, whitespace, implicit defaults) must hash equal, and
// every semantic difference (an axis value, a seed, a shard) must hash
// differently — cell seeds derive from grid position, so even axis
// ORDER is semantic.

// hashOfJSON parses a raw spec document and hashes it.
func hashOfJSON(t *testing.T, doc string) string {
	t.Helper()
	s, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatalf("parse %s: %v", doc, err)
	}
	h, err := SpecHash(s)
	if err != nil {
		t.Fatalf("hash %s: %v", doc, err)
	}
	return h
}

func TestSpecHashSyntacticInvariance(t *testing.T) {
	base := `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["highway-cruise"],"duration":1,"dt":0.1,"base_seed":7}}`
	variants := map[string]string{
		"permuted top-level keys": `{"matrix":{"scenarios":["highway-cruise"],"duration":1,"dt":0.1,"base_seed":7},"preset":"quick","kind":"matrix"}`,
		"permuted matrix keys":    `{"kind":"matrix","preset":"quick","matrix":{"base_seed":7,"dt":0.1,"duration":1,"scenarios":["highway-cruise"]}}`,
		"whitespace and newlines": "{\n  \"kind\": \"matrix\",\n  \"preset\": \"quick\",\n  \"matrix\": {\n    \"scenarios\": [ \"highway-cruise\" ],\n    \"duration\": 1.0,\n    \"dt\": 0.1,\n    \"base_seed\": 7\n  }\n}",
		"explicit version":        `{"version":1,"kind":"matrix","preset":"quick","matrix":{"scenarios":["highway-cruise"],"duration":1,"dt":0.1,"base_seed":7}}`,
	}
	want := hashOfJSON(t, base)
	for name, doc := range variants {
		if got := hashOfJSON(t, doc); got != want {
			t.Errorf("%s: hash %s != base %s", name, got, want)
		}
	}
}

func TestSpecHashDefaultResolution(t *testing.T) {
	// The implicit default and the same default spelled out are the same
	// run, so they must share a content address.
	cases := []struct {
		name             string
		implied, spelled string
	}{
		{
			"implicit preset is quick",
			`{"kind":"table1"}`,
			`{"kind":"table1","preset":"quick"}`,
		},
		{
			"implicit axes are the registry defaults",
			`{"kind":"matrix","matrix":{"base_seed":7}}`,
			`{"kind":"matrix","matrix":{"scenarios":` + jsonNames(defaultScenarioNames()) +
				`,"attacks":` + jsonNames(DefaultMatrixAttacks()) +
				`,"defenses":` + jsonNames(DefaultMatrixDefenses()) + `,"base_seed":7}}`,
		},
		{
			"implicit matrix section is the default grid",
			`{"kind":"matrix"}`,
			`{"kind":"matrix","matrix":{}}`,
		},
		{
			"implicit base seed resolves from the preset",
			`{"kind":"matrix","preset":"quick","matrix":{"scenarios":["highway-cruise"]}}`,
			`{"kind":"matrix","preset":"quick","matrix":{"scenarios":["highway-cruise"],"base_seed":1707}}`,
		},
		{
			"implicit num_shards is 1",
			`{"kind":"sweep","sweep":{"shard":0}}`,
			`{"kind":"sweep","sweep":{"shard":0,"num_shards":1}}`,
		},
		{
			"checkpoint path and resume are execution details",
			`{"kind":"sweep","sweep":{"shard":1,"num_shards":4}}`,
			`{"kind":"sweep","sweep":{"shard":1,"num_shards":4,"jsonl":"cells.jsonl","resume":true}}`,
		},
	}
	for _, tc := range cases {
		if a, b := hashOfJSON(t, tc.implied), hashOfJSON(t, tc.spelled); a != b {
			t.Errorf("%s: implied %s != spelled %s", tc.name, a, b)
		}
	}
	// Sanity-check the resolved implicit base seed really mirrors the
	// runner's derivation (preset seed + 1700).
	q, err := PresetByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	if q.Seed+1700 != 1707 {
		t.Fatalf("quick implicit base seed is %d; update the spelled-out case", q.Seed+1700)
	}
}

func TestSpecHashSemanticDifferences(t *testing.T) {
	base := `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["gentle-brake","hard-brake"],"attacks":["None","FGSM"],"duration":1,"dt":0.1,"base_seed":7}}`
	different := map[string]string{
		"changed axis value":  `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["gentle-brake","highway-cruise"],"attacks":["None","FGSM"],"duration":1,"dt":0.1,"base_seed":7}}`,
		"reordered axis":      `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["hard-brake","gentle-brake"],"attacks":["None","FGSM"],"duration":1,"dt":0.1,"base_seed":7}}`,
		"dropped axis value":  `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["gentle-brake"],"attacks":["None","FGSM"],"duration":1,"dt":0.1,"base_seed":7}}`,
		"different duration":  `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["gentle-brake","hard-brake"],"attacks":["None","FGSM"],"duration":2,"dt":0.1,"base_seed":7}}`,
		"different base seed": `{"kind":"matrix","preset":"quick","matrix":{"scenarios":["gentle-brake","hard-brake"],"attacks":["None","FGSM"],"duration":1,"dt":0.1,"base_seed":8}}`,
		"different kind":      `{"kind":"sweep","preset":"quick","matrix":{"scenarios":["gentle-brake","hard-brake"],"attacks":["None","FGSM"],"duration":1,"dt":0.1,"base_seed":7}}`,
		"different preset":    `{"kind":"matrix","preset":"paper","matrix":{"scenarios":["gentle-brake","hard-brake"],"attacks":["None","FGSM"],"duration":1,"dt":0.1,"base_seed":7}}`,
	}
	want := hashOfJSON(t, base)
	seen := map[string]string{base: "base"}
	for name, doc := range different {
		got := hashOfJSON(t, doc)
		if got == want {
			t.Errorf("%s: hash collides with base", name)
		}
		if prev, dup := seen[doc]; dup {
			t.Fatalf("test bug: %s duplicates %s", name, prev)
		}
		seen[doc] = name
	}
	// Shard selection is semantic: different shards compute different cells.
	s0 := hashOfJSON(t, `{"kind":"sweep","sweep":{"shard":0,"num_shards":4}}`)
	s1 := hashOfJSON(t, `{"kind":"sweep","sweep":{"shard":1,"num_shards":4}}`)
	if s0 == s1 {
		t.Error("different shards hash equal")
	}
}

func TestSpecHashRejectsInvalidSpecs(t *testing.T) {
	bad := []Spec{
		{Kind: "no-such-kind"},
		{Kind: KindMatrix, Preset: "no-such-preset"},
		{Kind: KindMatrix, Matrix: &MatrixSpec{Scenarios: []string{"no-such-scenario"}}},
		{Kind: KindTable1, Matrix: &MatrixSpec{}},
		{Kind: KindSweep, Sweep: &SweepSpec{Shard: 5, NumShards: 4}},
	}
	for i, s := range bad {
		if _, err := SpecHash(s); err == nil {
			t.Errorf("case %d: invalid spec hashed without error", i)
		}
	}
}

// jsonNames renders a name list as a JSON array literal.
func jsonNames(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = `"` + n + `"`
	}
	return "[" + strings.Join(quoted, ",") + "]"
}
