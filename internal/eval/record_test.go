package eval

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCheckpointRoundTrip pins the persisted record format: every
// line of the fixture (written by an earlier encoder: a collision cell, a
// +Inf TTC cell, exponent-form and empty/nil trajectories) decodes and
// re-encodes byte for byte, so lanes, store segments and cached payloads
// written by an earlier binary still load after an upgrade.
func TestGoldenCheckpointRoundTrip(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "golden_checkpoint.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(buf)
	if len(lines) < 4 {
		t.Fatalf("fixture holds %d lines, want at least 4", len(lines))
	}
	var collision, infTTC bool
	for i, line := range lines {
		var rec SweepRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("line %d re-encodes differently:\ngot:  %s\nwant: %s", i+1, got, line)
		}
		collision = collision || rec.Cell.Collision
		infTTC = infTTC || math.IsInf(rec.Cell.MinTTC, 1)
	}
	if !collision || !infTTC {
		t.Fatalf("fixture lost its edge cells: collision=%v +Inf TTC=%v", collision, infTTC)
	}
}

// TestRecordNonFiniteTrajectoryRoundTrip: a NaN or infinite sample in a
// trajectory (a perception model emitting NaN) must neither fail the
// checkpoint write nor come back altered.
func TestRecordNonFiniteTrajectoryRoundTrip(t *testing.T) {
	g := fabricatedGrid()
	cell := fabricatedCell(g.IDs[1])
	cell.Result.PerceivedGaps = []float64{12.5, math.NaN(), math.Inf(1)}
	cell.Result.EgoSpeeds = []float64{math.Inf(-1), 0}
	path := filepath.Join(t.TempDir(), "lane.jsonl")

	lane, _, err := g.OpenLane(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lane.Append(1, cell); err != nil {
		t.Fatalf("checkpoint lane failed on a non-finite trajectory: %v", err)
	}
	if err := lane.Close(); err != nil {
		t.Fatal(err)
	}
	done, _, err := g.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	back := done[1]
	for name, pair := range map[string][2][]float64{
		"perceived_gaps": {cell.Result.PerceivedGaps, back.Result.PerceivedGaps},
		"ego_speeds":     {cell.Result.EgoSpeeds, back.Result.EgoSpeeds},
		"times":          {cell.Result.Times, back.Result.Times},
	} {
		want, got := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", name, got, want)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
				!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s[%d]: %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}
