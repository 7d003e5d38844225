package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sync"

	"repro/internal/sim"
)

// digestSeed is the seed whose outputs testdata/digests.json pins, on the
// quick preset at full scale. Any other run checks internally only:
// replica equality, hit bytes equal to the miss bytes, and repeated inputs
// giving repeated outputs.
const digestSeed = 1

// digestFile maps workload → output key → hex SHA-256 of that output at
// digestSeed on the quick preset. Regenerate with -update-digests after a
// change that is meant to alter results.
//
//go:embed testdata/digests.json
var digestFile []byte

// digests is one workload's committed output digests.
type digests map[string]string

// committedDigests returns the digests a run must reproduce: the
// workload's committed set at the digest seed on the quick preset, nil
// for any other run. A committed file that does not parse, or lacks the
// workload, is an error rather than a run without the check.
func committedDigests(o options) (digests, error) {
	if o.seed != digestSeed || o.preset.Name != "quick" || o.scale != 1 {
		return nil, nil
	}
	var all map[string]digests
	if err := json.Unmarshal(digestFile, &all); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	d := all[o.workload]
	if len(d) == 0 {
		return nil, fmt.Errorf("testdata/digests.json has no digests for %s; regenerate them with -update-digests", o.workload)
	}
	return d, nil
}

// checker compares each output digest against the committed one and
// against any earlier output under the same key in this run.
type checker struct {
	want digests // nil: internal checks only

	mu   sync.Mutex
	seen map[string]string
}

func newChecker(want digests) *checker { return &checker{want: want, seen: map[string]string{}} }

// check reports whether the output digest got under key is correct. With
// committed digests, an output they do not cover is not correct either.
func (c *checker) check(key, got string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.want != nil && c.want[key] != got {
		return false
	}
	if prev, ok := c.seen[key]; ok {
		return prev == got
	}
	c.seen[key] = got
	return true
}

// digestResults hashes closed-loop results by their float bits.
func digestResults(rs []sim.Result) string {
	h := sha256.New()
	for _, r := range rs {
		writeResult(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeResult(h hash.Hash, r sim.Result) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, s := range [][]float64{r.Times, r.TrueGaps, r.PerceivedGaps, r.EgoSpeeds, r.LeadSpeeds} {
		put(float64(len(s)))
		for _, v := range s {
			put(v)
		}
	}
	put(r.MinGap)
	put(r.MinTTC)
	if r.Collision {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestJSON hashes a value's JSON encoding.
func digestJSON(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on plain structs of strings and numbers
	}
	return digestBytes(buf)
}

// updateDigests recomputes every workload's reference digests at the
// digest seed and writes them to path.
func updateDigests(ctx context.Context, o options, path string) error {
	o.seed = digestSeed
	all := map[string]digests{}
	for _, w := range workloads {
		b, _, err := setup(ctx, o, w, nil)
		if err != nil {
			return err
		}
		all[w.name], err = w.reference(ctx, b)
		b.close()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
