package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/eval"
)

// SpecVersion is the current Spec schema version.
const SpecVersion = 1

// Spec kinds: the experiments a spec can address.
const (
	KindTable1    = "table1"
	KindTable2    = "table2"
	KindTable3    = "table3"
	KindTable4    = "table4"
	KindTable5    = "table5"
	KindFig2      = "fig2"
	KindPipeline  = "pipeline"
	KindAblations = "ablations"
	KindMatrix    = "matrix"
	KindSweep     = "sweep"
)

// specKinds lists every valid kind (error-message order).
var specKinds = []string{
	KindTable1, KindTable2, KindTable3, KindTable4, KindTable5,
	KindFig2, KindPipeline, KindAblations, KindMatrix, KindSweep,
}

// Spec is the serializable address of one run: any experiment of the
// harness — a paper table, the scenario matrix, one shard of a sweep — as
// a JSON-round-trippable value validated against the registries. Equal
// specs denote bit-identical runs: every seed derives from the preset and
// the grid indices, never from the machine executing it.
type Spec struct {
	// Version is the schema version; zero means SpecVersion.
	Version int `json:"version,omitempty"`
	// Kind selects the experiment: table1..table5, fig2, pipeline,
	// ablations, matrix or sweep.
	Kind string `json:"kind"`
	// Preset names the experiment preset ("quick" or "paper"); empty
	// means quick. An Experiment built over a custom preset accepts
	// specs whose Preset is empty or equal to that preset's name.
	Preset string `json:"preset,omitempty"`

	// Matrix configures the grid for matrix and sweep kinds; nil selects
	// the full default grid.
	Matrix *MatrixSpec `json:"matrix,omitempty"`
	// Sweep configures sharding/checkpointing; sweep kind only.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// MatrixSpec declares a scenario × attack × defense grid by registry
// names. Empty axes select the defaults (full scenario registry, default
// attack/defense columns).
type MatrixSpec struct {
	Scenarios []string `json:"scenarios,omitempty"`
	Attacks   []string `json:"attacks,omitempty"`
	Defenses  []string `json:"defenses,omitempty"`

	Duration float64 `json:"duration,omitempty"` // seconds; 0 = scenario default
	DT       float64 `json:"dt,omitempty"`       // control period; 0 = default
	BaseSeed int64   `json:"base_seed,omitempty"`
}

// SweepSpec declares one shard of a checkpointed sweep.
type SweepSpec struct {
	Shard     int    `json:"shard"`
	NumShards int    `json:"num_shards,omitempty"` // 0 means 1
	JSONL     string `json:"jsonl,omitempty"`
	Resume    bool   `json:"resume,omitempty"`
}

// ParseSpec decodes and validates a JSON spec. Unknown fields and
// trailing content after the spec object are rejected so a typo (or a
// concatenated second document) addresses nothing silently.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("exp: parse spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("exp: parse spec: trailing content after the spec object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// JSON encodes the spec (indented, stable field order).
func (s Spec) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// PresetByName resolves a spec preset name; empty selects quick.
func PresetByName(name string) (eval.Preset, error) {
	switch name {
	case "", "quick":
		return eval.Quick(), nil
	case "paper":
		return eval.Paper(), nil
	default:
		return eval.Preset{}, fmt.Errorf("exp: unknown preset %q (want quick or paper)", name)
	}
}

// Validate checks the spec against the schema and the registries: kind
// and preset must be known, every named scenario/attack/defense must be
// registered (attacks runtime-capable, since the grid is the closed-loop
// protocol), and shard/duration values must be in range.
func (s Spec) Validate() error {
	if s.Version != 0 && s.Version != SpecVersion {
		return fmt.Errorf("exp: spec version %d unsupported (want %d)", s.Version, SpecVersion)
	}
	valid := false
	for _, k := range specKinds {
		if s.Kind == k {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("exp: unknown spec kind %q (want one of %s)", s.Kind, strings.Join(specKinds, ", "))
	}
	if _, err := PresetByName(s.Preset); err != nil {
		return err
	}

	gridKind := s.Kind == KindMatrix || s.Kind == KindSweep
	if s.Matrix != nil && !gridKind {
		return fmt.Errorf("exp: spec kind %q takes no matrix section", s.Kind)
	}
	if s.Sweep != nil && s.Kind != KindSweep {
		return fmt.Errorf("exp: spec kind %q takes no sweep section", s.Kind)
	}

	if m := s.Matrix; m != nil {
		if m.Duration < 0 || m.DT < 0 {
			return fmt.Errorf("exp: matrix duration/dt must be non-negative (got %v/%v)", m.Duration, m.DT)
		}
		for _, name := range m.Scenarios {
			if _, ok := LookupScenario(name); !ok {
				return fmt.Errorf("exp: unknown scenario %q (registry: %s)", name, strings.Join(Scenarios(), ", "))
			}
		}
		for _, name := range m.Attacks {
			d, ok := LookupAttack(name)
			if !ok {
				return fmt.Errorf("exp: unknown attack %q (registry: %s)", name, strings.Join(sortedClone(Attacks()), ", "))
			}
			if !d.RuntimeCapable() {
				return fmt.Errorf("exp: attack %q has no closed-loop runtime form; it cannot sit on the matrix axis", name)
			}
		}
		for _, name := range m.Defenses {
			if _, ok := LookupDefense(name); !ok {
				return fmt.Errorf("exp: unknown defense %q (registry: %s)", name, strings.Join(sortedClone(Defenses()), ", "))
			}
		}
	}
	if sw := s.Sweep; sw != nil {
		n := sw.NumShards
		if n == 0 {
			n = 1
		}
		if n < 1 || sw.Shard < 0 || sw.Shard >= n {
			return fmt.Errorf("exp: sweep shard %d/%d out of range", sw.Shard, n)
		}
	}
	return nil
}

// matrixConfig resolves the spec's named axes into the executable grid
// config (factories attached). The spec must have validated.
func (s Spec) matrixConfig() (eval.MatrixConfig, error) {
	var cfg eval.MatrixConfig
	m := s.Matrix
	if m == nil {
		return cfg, nil
	}
	cfg.Duration, cfg.DT, cfg.BaseSeed = m.Duration, m.DT, m.BaseSeed
	for _, name := range m.Scenarios {
		sc, ok := LookupScenario(name)
		if !ok {
			return cfg, fmt.Errorf("exp: unknown scenario %q", name)
		}
		cfg.Scenarios = append(cfg.Scenarios, sc)
	}
	for _, name := range m.Attacks {
		d, ok := LookupAttack(name)
		if !ok || !d.RuntimeCapable() {
			return cfg, fmt.Errorf("exp: attack %q not usable on the matrix axis", name)
		}
		cfg.Attacks = append(cfg.Attacks, eval.AttackSpec{Name: d.Name, New: d.Runtime})
	}
	for _, name := range m.Defenses {
		d, ok := LookupDefense(name)
		if !ok {
			return cfg, fmt.Errorf("exp: unknown defense %q", name)
		}
		cfg.Defenses = append(cfg.Defenses, eval.DefenseSpec{Name: d.Name, New: d.New})
	}
	return cfg, nil
}

// sweepConfig resolves the spec into the executable sweep shard config.
func (s Spec) sweepConfig() (eval.SweepConfig, error) {
	mcfg, err := s.matrixConfig()
	if err != nil {
		return eval.SweepConfig{}, err
	}
	cfg := eval.SweepConfig{Matrix: mcfg}
	if sw := s.Sweep; sw != nil {
		cfg.Shard, cfg.NumShards = sw.Shard, sw.NumShards
		cfg.JSONL, cfg.Resume = sw.JSONL, sw.Resume
	}
	return cfg, nil
}

// CellIDs expands the spec's grid identity — per-cell index, seed and axis
// names — without training anything: the verification key for sweep-merge
// and for cross-machine grid addressing. Matrix and sweep kinds only.
func (s Spec) CellIDs() ([]eval.CellID, error) {
	g, err := s.Grid()
	return g.IDs, err
}

// Grid derives the spec's cell-record codec: its grid identity stamped
// with the preset, duration and dt every checkpoint record of the run
// carries. Matrix and sweep kinds only.
func (s Spec) Grid() (eval.Grid, error) {
	if s.Kind != KindMatrix && s.Kind != KindSweep {
		return eval.Grid{}, fmt.Errorf("exp: spec kind %q has no grid", s.Kind)
	}
	if err := s.Validate(); err != nil {
		return eval.Grid{}, err
	}
	cfg, err := s.matrixConfig()
	if err != nil {
		return eval.Grid{}, err
	}
	p, err := PresetByName(s.Preset)
	if err != nil {
		return eval.Grid{}, err
	}
	return eval.NewGrid(cfg, p), nil
}
