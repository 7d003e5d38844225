// Package exp is the v2 experiment core: one registry-driven,
// spec-addressable, streaming runner behind every entrypoint of the
// harness. The paper's protocol — the same attacks and defense families
// measured on the same victims — is exposed as data, not methods:
//
//   - string-keyed registries name every attack, defense and scenario
//     (RegisterAttack / RegisterDefense / RegisterScenario make a new axis
//     a registration, not a code change);
//   - a serializable Spec addresses any run — dataset tables, the
//     scenario matrix, one shard of a sweep — and validates against the
//     registries before anything trains;
//   - Experiment (New with functional options) owns the trained
//     environment and runs specs under a context.Context with Observer
//     sinks streaming per-cell progress;
//   - MergeSpec joins the JSONL shards of a distributed sweep back into
//     the one grid the spec describes.
package exp

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/defense"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/regress"
)

// AttackDef registers one attack in the harness. The capability fields
// mirror the two ways the paper measures an attack: dataset attacks
// (Detection/Regression — the table experiments) and closed-loop runtime
// attacks (Runtime — a matrix/sweep axis column).
type AttackDef struct {
	Name        string
	Description string

	// Detection/Regression mark the dataset tasks the attack applies to
	// (AttackSignSet / AttackDriveSet in the table protocol).
	Detection  bool
	Regression bool

	// Runtime builds a fresh closed-loop attacker for one grid cell; the
	// factory runs once per cell, so stateful attackers (CAP's inherited
	// patch) stay confined to their cell. nil for the clean baseline and
	// for dataset-only attacks.
	Runtime func(e *eval.Env, reg *regress.Regressor, seed int64) pipeline.Attacker
}

// RuntimeCapable reports whether the attack can sit on the matrix axis:
// it either builds a runtime attacker or is the clean baseline.
func (d AttackDef) RuntimeCapable() bool { return d.Runtime != nil || d.Name == "None" }

// DefenseDef registers one input-level defense. New builds a fresh
// preprocessor per grid cell (stateful defenses and model-backed defenses
// must not share instances across concurrent cells); nil marks the
// undefended baseline.
type DefenseDef struct {
	Name        string
	Description string

	New func(e *eval.Env, seed int64) defense.Preprocessor
}

// registry is a string-keyed, insertion-ordered, concurrency-safe table.
type registry[T any] struct {
	mu    sync.RWMutex
	kind  string
	names []string
	byKey map[string]T
}

func newRegistry[T any](kind string) *registry[T] {
	return &registry[T]{kind: kind, byKey: map[string]T{}}
}

func (r *registry[T]) register(name string, v T) error {
	if name == "" {
		return fmt.Errorf("exp: %s registration needs a name", r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[name]; dup {
		return fmt.Errorf("exp: %s %q already registered", r.kind, name)
	}
	r.byKey[name] = v
	r.names = append(r.names, name)
	return nil
}

func (r *registry[T]) lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byKey[name]
	return v, ok
}

func (r *registry[T]) list() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

var (
	attackReg   = newRegistry[AttackDef]("attack")
	defenseReg  = newRegistry[DefenseDef]("defense")
	scenarioReg = newRegistry[pipeline.Scenario]("scenario")
)

// RegisterAttack adds an attack to the registry. Names are unique across
// the built-ins and every prior registration.
func RegisterAttack(d AttackDef) error { return attackReg.register(d.Name, d) }

// MustRegisterAttack is RegisterAttack, panicking on error (init-time use).
func MustRegisterAttack(d AttackDef) {
	if err := RegisterAttack(d); err != nil {
		panic(err)
	}
}

// LookupAttack returns the registered attack with the given name.
func LookupAttack(name string) (AttackDef, bool) { return attackReg.lookup(name) }

// Attacks lists every registered attack name in registration order
// (built-ins first).
func Attacks() []string { return attackReg.list() }

// RegisterDefense adds a defense to the registry.
func RegisterDefense(d DefenseDef) error { return defenseReg.register(d.Name, d) }

// MustRegisterDefense is RegisterDefense, panicking on error.
func MustRegisterDefense(d DefenseDef) {
	if err := RegisterDefense(d); err != nil {
		panic(err)
	}
}

// LookupDefense returns the registered defense with the given name.
func LookupDefense(name string) (DefenseDef, bool) { return defenseReg.lookup(name) }

// Defenses lists every registered defense name in registration order.
func Defenses() []string { return defenseReg.list() }

// RegisterScenario adds a closed-loop scenario to the registry, alongside
// the built-in pipeline registry.
func RegisterScenario(s pipeline.Scenario) error {
	if _, builtin := pipeline.FindScenario(s.Name); builtin {
		return fmt.Errorf("exp: scenario %q already registered", s.Name)
	}
	return scenarioReg.register(s.Name, s)
}

// LookupScenario resolves a scenario name against the built-in pipeline
// registry first, then exp registrations.
func LookupScenario(name string) (pipeline.Scenario, bool) {
	if s, ok := pipeline.FindScenario(name); ok {
		return s, true
	}
	return scenarioReg.lookup(name)
}

// Scenarios lists every scenario name: built-ins in registry order, then
// exp registrations.
func Scenarios() []string {
	var names []string
	for _, s := range pipeline.Scenarios() {
		names = append(names, s.Name)
	}
	return append(names, scenarioReg.list()...)
}

// DefaultMatrixAttacks / DefaultMatrixDefenses name the default grid axes
// — the columns a spec gets when it lists none. They are pinned to the
// pre-registry defaults so default grids stay bit-identical.
func DefaultMatrixAttacks() []string { return namesOfAttacks(eval.DefaultMatrixAttacks()) }

// DefaultMatrixDefenses names the default defense axis.
func DefaultMatrixDefenses() []string { return namesOfDefenses(eval.DefaultMatrixDefenses()) }

func namesOfAttacks(specs []eval.AttackSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func namesOfDefenses(specs []eval.DefenseSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// sortedClone returns a sorted copy for stable error messages.
func sortedClone(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

func init() {
	// The six attacks of the paper's protocol. Runtime factories make
	// CAP, FGSM and — new with the registry — Auto-PGD available as
	// closed-loop matrix axes; the Detection/Regression capabilities are
	// the dataset-attack protocol of Tables I–V and Fig. 2.
	MustRegisterAttack(AttackDef{
		Name: "None", Description: "clean baseline",
		Detection: true, Regression: true,
	})
	MustRegisterAttack(AttackDef{
		Name: "Gaussian", Description: "unoptimised Gaussian noise",
		Detection: true, Regression: true,
	})
	MustRegisterAttack(AttackDef{
		Name: "FGSM", Description: "single-step fast gradient sign attack",
		Detection: true, Regression: true, Runtime: eval.RuntimeFGSM,
	})
	MustRegisterAttack(AttackDef{
		Name: "Auto-PGD", Description: "adaptive iterative gradient attack (closed-loop: a few steps per frame)",
		Detection: true, Regression: true, Runtime: eval.RuntimeAutoPGD,
	})
	MustRegisterAttack(AttackDef{
		Name: "SimBA", Description: "query-based black-box attack",
		Detection: true,
	})
	MustRegisterAttack(AttackDef{
		Name: "RP2", Description: "physical sign-patch attack",
		Detection: true,
	})
	MustRegisterAttack(AttackDef{
		Name: "CAP-Attack", Description: "runtime contextually adversarial patch with warm-started inheritance",
		Regression: true, Runtime: eval.RuntimeCAP,
	})

	// The preprocessing defense family, all addressable as grid axes.
	MustRegisterDefense(DefenseDef{Name: "None", Description: "undefended baseline"})
	MustRegisterDefense(DefenseDef{
		Name: "Median Blurring", Description: "3x3 median filter",
		New: eval.NewMedianBlurDefense,
	})
	MustRegisterDefense(DefenseDef{
		Name: "DiffPIR", Description: "diffusion restoration through the trained DDPM prior",
		New: eval.NewDiffPIRDefense,
	})
	MustRegisterDefense(DefenseDef{
		Name: "Randomization", Description: "random resize-and-pad",
		New: func(e *eval.Env, seed int64) defense.Preprocessor {
			return defense.NewRandomization(seed)
		},
	})
	MustRegisterDefense(DefenseDef{
		Name: "Bit Depth", Description: "bit-depth reduction",
		New: func(e *eval.Env, seed int64) defense.Preprocessor {
			return defense.NewBitDepth()
		},
	})
}
