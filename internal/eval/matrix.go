package eval

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/box"
	"repro/internal/defense"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// AttackSpec is one column of the matrix's attack axis: a name and a
// factory that builds a fresh runtime attacker for one cell. Attackers are
// built per cell because they may be stateful (CAP inherits its patch
// between frames) and must not be shared across concurrently running
// cells. A nil New is the clean baseline.
type AttackSpec struct {
	Name string
	New  func(e *Env, reg *regress.Regressor, seed int64) pipeline.Attacker
}

// DefenseSpec is one column of the matrix's defense axis; like AttackSpec
// it is a per-cell factory because defenses may be stateful (Randomization
// advances an RNG per image) or hold models whose forward caches are not
// safe to share across goroutines (DiffPIR's UNet). A nil New runs the
// pipeline undefended.
type DefenseSpec struct {
	Name string
	New  func(e *Env, seed int64) defense.Preprocessor
}

// runtimeFGSMEps is the per-frame FGSM budget of the closed-loop threat
// model: like the CAP runtime budget it is visible-but-stealthy rather
// than the Table I calibration value.
const runtimeFGSMEps = 0.08

// RuntimeCAP returns the stateful closed-loop CAP attacker of the default
// matrix axis: a warm-started adversarial patch with the runtime budget,
// attacking through its own regressor clone.
func RuntimeCAP(e *Env, reg *regress.Regressor, seed int64) pipeline.Attacker {
	cfg := capConfig(e.Budgets)
	cfg.Eps = 0.12
	c := attack.NewCAP(cfg)
	obj := &attack.RegressionObjective{Reg: reg.Clone()}
	return pipeline.AttackerFunc(func(img *imaging.Image, leadBox box.Box) *imaging.Image {
		return c.Apply(obj, img, leadBox)
	})
}

// RuntimeFGSM returns a per-frame FGSM attacker confined to the
// lead-vehicle box, attacking through its own regressor clone. The mask and
// output frame are closure-held buffers reused across frames: the pipeline
// consumes each attacked frame before requesting the next, so one
// destination suffices and the 20 Hz loop allocates nothing per frame.
func RuntimeFGSM(e *Env, reg *regress.Regressor, seed int64) pipeline.Attacker {
	obj := &attack.RegressionObjective{Reg: reg.Clone()}
	var mask *tensor.Tensor
	var out *imaging.Image
	return pipeline.AttackerFunc(func(img *imaging.Image, leadBox box.Box) *imaging.Image {
		lb := leadBox.Clip(float64(img.W), float64(img.H))
		if lb.Empty() || lb.W() < 1 || lb.H() < 1 {
			return img.Clone()
		}
		if mask == nil || !mask.ShapeEq(img.C, img.H, img.W) {
			mask = tensor.New(img.C, img.H, img.W)
		}
		attack.BoxMaskInto(mask, lb, 1)
		out = imaging.EnsureLike(out, img)
		return attack.FGSMInto(out, obj, img, runtimeFGSMEps, mask)
	})
}

// RuntimeAutoPGD returns a per-frame Auto-PGD attacker confined to the
// lead-vehicle box — the iterative escalation of the FGSM runtime threat
// model, a few adaptive gradient steps per 20 Hz frame at the same
// visible-but-stealthy budget. It is registered as an additional attack
// axis (exp.RegisterAttack) rather than a default column, so the default
// grid keeps its pre-registry cells bit-identical.
func RuntimeAutoPGD(e *Env, reg *regress.Regressor, seed int64) pipeline.Attacker {
	obj := &attack.RegressionObjective{Reg: reg.Clone()}
	cfg := attack.DefaultAPGDConfig(runtimeFGSMEps)
	// A tight per-frame step budget: the attacker shares the control
	// period with the victim, so it gets iterations, not leisure.
	cfg.Steps = 6
	var mask *tensor.Tensor
	return pipeline.AttackerFunc(func(img *imaging.Image, leadBox box.Box) *imaging.Image {
		lb := leadBox.Clip(float64(img.W), float64(img.H))
		if lb.Empty() || lb.W() < 1 || lb.H() < 1 {
			return img.Clone()
		}
		if mask == nil || !mask.ShapeEq(img.C, img.H, img.W) {
			mask = tensor.New(img.C, img.H, img.W)
		}
		attack.BoxMaskInto(mask, lb, 1)
		return attack.AutoPGD(obj, img, cfg, mask)
	})
}

// DefaultMatrixAttacks returns the default attack axis: clean, the
// stateful runtime CAP-Attack, and per-frame FGSM.
func DefaultMatrixAttacks() []AttackSpec {
	return []AttackSpec{
		{Name: "None"},
		{Name: "CAP-Attack", New: RuntimeCAP},
		{Name: "FGSM", New: RuntimeFGSM},
	}
}

// NewMedianBlurDefense builds the median-blur defense column entry.
func NewMedianBlurDefense(e *Env, seed int64) defense.Preprocessor {
	return defense.NewMedianBlur()
}

// NewDiffPIRDefense builds a per-cell DiffPIR defense: it clones the
// trained prior so concurrent cells never share UNet activation buffers,
// and seeds the restoration from the cell seed so reports are reproducible
// regardless of cell scheduling.
func NewDiffPIRDefense(e *Env, seed int64) defense.Preprocessor {
	cfg := defense.DefaultDiffPIRConfig()
	cfg.Steps = e.Preset.DiffPIRSteps
	cfg.Seed = seed
	return &defense.DiffPIRDefense{Model: e.Diffusion().Clone(), Cfg: cfg}
}

// DefaultMatrixDefenses returns the default defense axis: undefended,
// median blurring, and diffusion restoration (DiffPIR).
func DefaultMatrixDefenses() []DefenseSpec {
	return []DefenseSpec{
		{Name: "None"},
		{Name: "Median Blurring", New: NewMedianBlurDefense},
		{Name: "DiffPIR", New: NewDiffPIRDefense},
	}
}

// MatrixConfig declares a scenario × attack × defense grid. Zero-valued
// fields select the defaults: the full scenario registry, the default
// attack and defense axes, the scenarios' own duration/timestep, and a
// base seed derived from the preset.
type MatrixConfig struct {
	Scenarios []pipeline.Scenario
	Attacks   []AttackSpec
	Defenses  []DefenseSpec

	Duration float64 // seconds; 0 keeps each scenario's default
	DT       float64 // control period; 0 keeps the default
	BaseSeed int64   // cell seeds derive from this + cell index; 0 = preset seed

	// Observer, when non-nil, receives run/cell progress events from
	// RunMatrixCtx and RunSweepCtx. It never affects results.
	Observer Observer `json:"-"`
}

// cellSeedStride spaces per-cell seed blocks so a cell's pipeline,
// attacker and defense sub-seeds never collide with a neighbour's.
const cellSeedStride = 100003

// MatrixCell is one executed grid point with its safety metrics.
type MatrixCell struct {
	Scenario string
	Attack   string
	Defense  string
	Seed     int64

	Collision  bool
	MinGap     float64 // meters
	MinTTC     float64 // seconds (+Inf when never closing)
	MeanGapErr float64 // mean |perceived − true| gap over the run, meters
	Steps      int     // simulated control steps before termination

	Result sim.Result // full trajectory telemetry
}

// MatrixReport aggregates a full grid run.
type MatrixReport struct {
	Preset string
	Cells  []MatrixCell
}

// CellID identifies one grid point by its global index, deterministic seed
// and axis names — the grid identity a checkpoint record, a shard merge or
// a spec-addressed run validates against. It is derivable from a
// MatrixConfig and a preset seed alone, with no trained environment.
type CellID struct {
	Index    int    `json:"index"`
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario"`
	Attack   string `json:"attack"`
	Defense  string `json:"defense"`
}

// cellSpec is one expanded grid point: its identity plus the factories
// that execute it. Seeds derive from the cell's global grid index, so any
// decomposition of the grid — full matrix run or sharded sweep — executes
// identical cells.
type cellSpec struct {
	id       CellID
	scenario pipeline.Scenario
	attack   AttackSpec
	defense  DefenseSpec
}

// DefaultMatrixScenarios returns the scenario axis a config gets when it
// lists none: the built-in pipeline registry.
func DefaultMatrixScenarios() []pipeline.Scenario { return pipeline.Scenarios() }

// resolveAxes fills a config's empty axes with the registry defaults.
func resolveAxes(cfg MatrixConfig) (scenarios []pipeline.Scenario, attacks []AttackSpec, defenses []DefenseSpec) {
	scenarios = cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = DefaultMatrixScenarios()
	}
	attacks = cfg.Attacks
	if len(attacks) == 0 {
		attacks = DefaultMatrixAttacks()
	}
	defenses = cfg.Defenses
	if len(defenses) == 0 {
		defenses = DefaultMatrixDefenses()
	}
	return scenarios, attacks, defenses
}

// matrixBaseSeed resolves the grid's base seed against the preset default.
func matrixBaseSeed(cfg MatrixConfig, presetSeed int64) int64 {
	if cfg.BaseSeed != 0 {
		return cfg.BaseSeed
	}
	return presetSeed + 1700
}

// CellIDs expands the scenario-major × attack × defense grid of cfg into
// per-cell identities (index, seed, names) without touching any trained
// model — the pure grid identity used by sweep-merge verification and
// spec validation. presetSeed supplies the default base seed.
func CellIDs(cfg MatrixConfig, presetSeed int64) []CellID {
	scenarios, attacks, defenses := resolveAxes(cfg)
	baseSeed := matrixBaseSeed(cfg, presetSeed)
	ids := make([]CellID, 0, len(scenarios)*len(attacks)*len(defenses))
	for _, sc := range scenarios {
		for _, at := range attacks {
			for _, df := range defenses {
				i := len(ids)
				ids = append(ids, CellID{
					Index: i, Seed: baseSeed + int64(i)*cellSeedStride,
					Scenario: sc.Name, Attack: at.Name, Defense: df.Name,
				})
			}
		}
	}
	return ids
}

// expandGrid resolves the config's axes against the defaults and expands
// the grid with per-cell identities and factories.
func (e *Env) expandGrid(cfg MatrixConfig) []cellSpec {
	scenarios, attacks, defenses := resolveAxes(cfg)
	baseSeed := matrixBaseSeed(cfg, e.Preset.Seed)
	specs := make([]cellSpec, 0, len(scenarios)*len(attacks)*len(defenses))
	for _, sc := range scenarios {
		for _, at := range attacks {
			for _, df := range defenses {
				i := len(specs)
				specs = append(specs, cellSpec{
					id: CellID{
						Index: i, Seed: baseSeed + int64(i)*cellSeedStride,
						Scenario: sc.Name, Attack: at.Name, Defense: df.Name,
					},
					scenario: sc, attack: at, defense: df,
				})
			}
		}
	}
	return specs
}

// warmDefenses builds one throwaway instance of every defense appearing in
// specs. Defenses backed by lazily trained models (DiffPIR's diffusion
// prior) train on first construction; doing it here keeps that
// (deterministic, Once-guarded) training out of the parallel section
// instead of stalling the first cell that needs it — and a shard whose
// remaining cells never use a heavy defense skips its training entirely.
func (e *Env) warmDefenses(specs []cellSpec) {
	seen := map[string]bool{}
	for _, s := range specs {
		if s.defense.New != nil && !seen[s.defense.Name] {
			seen[s.defense.Name] = true
			s.defense.New(e, s.id.Seed)
		}
	}
}

// RunMatrixCtx expands the grid and executes every cell on the worker
// pool — the one-shard, lane-less case of RunSweepCtx — one cloned
// regressor per worker and a deterministic seed per cell, so the report
// is bit-identical across runs and across GOMAXPROCS settings. Cell
// start/finish events stream to the config's Observer as the grid
// executes; a cancelled context stops dispatching cells promptly
// (in-flight cells finish) and returns the context error, its only error.
// The observer and the context plumbing never touch the numbers.
func (e *Env) RunMatrixCtx(ctx context.Context, cfg MatrixConfig) (MatrixReport, error) {
	rep, err := e.RunSweepCtx(ctx, SweepConfig{Matrix: cfg})
	if err != nil {
		return MatrixReport{}, err
	}
	return rep.Matrix(), nil
}

// runMatrixCell executes one grid point on the given worker regressor.
func (e *Env) runMatrixCell(reg *regress.Regressor, sc pipeline.Scenario, at AttackSpec, df DefenseSpec, m MatrixConfig, seed int64) MatrixCell {
	base := pipeline.DefaultConfig(reg)
	base.Drive = e.DriveCfg
	cfg := sc.Apply(base)
	if m.Duration > 0 {
		cfg.Duration = m.Duration
	}
	if m.DT > 0 {
		cfg.DT = m.DT
	}
	cfg.Seed = seed
	if at.New != nil {
		// Hand the factory the worker-local clone, not the shared e.Reg:
		// a custom attacker that skips its own Clone then still only ever
		// touches one goroutine's network.
		cfg.Attacker = at.New(e, reg, seed+1)
	}
	if df.New != nil {
		cfg.Defense = df.New(e, seed+2)
	}

	res := pipeline.Run(cfg)
	var errSum float64
	for i := range res.TrueGaps {
		d := res.PerceivedGaps[i] - res.TrueGaps[i]
		if d < 0 {
			d = -d
		}
		errSum += d
	}
	meanErr := 0.0
	if len(res.TrueGaps) > 0 {
		meanErr = errSum / float64(len(res.TrueGaps))
	}
	return MatrixCell{
		Scenario:   sc.Name,
		Attack:     at.Name,
		Defense:    df.Name,
		Seed:       seed,
		Collision:  res.Collision,
		MinGap:     res.MinGap,
		MinTTC:     res.MinTTC,
		MeanGapErr: meanErr,
		Steps:      len(res.Times),
		Result:     res,
	}
}

// Format renders the matrix as an aligned text table grouped by scenario,
// with a collision tally per attack × defense pair at the bottom.
func (r MatrixReport) Format() string {
	var b strings.Builder
	b.WriteString("SCENARIO MATRIX: closed-loop ACC safety, scenario x attack x defense\n")
	b.WriteString(fmt.Sprintf("%-16s %-12s %-17s %10s %10s %11s %10s\n",
		"Scenario", "Attack", "Defense", "MinGap(m)", "MinTTC(s)", "GapErr(m)", "Collision"))
	prev := ""
	for _, c := range r.Cells {
		label := ""
		if c.Scenario != prev {
			label = c.Scenario
			prev = c.Scenario
		}
		b.WriteString(fmt.Sprintf("%-16s %-12s %-17s %10.2f %10.2f %11.2f %10v\n",
			label, c.Attack, c.Defense, c.MinGap, capTTC(c.MinTTC), c.MeanGapErr, c.Collision))
	}
	b.WriteString("\ncollisions per attack x defense (over scenarios):\n")
	for _, t := range r.collisionTallies() {
		b.WriteString(fmt.Sprintf("  %-12s + %-17s %d/%d\n", t.attack, t.defense, t.collisions, t.total))
	}
	return b.String()
}

// Markdown renders the matrix as a GitHub-flavored markdown table.
func (r MatrixReport) Markdown() string {
	var b strings.Builder
	b.WriteString("| Scenario | Attack | Defense | MinGap (m) | MinTTC (s) | GapErr (m) | Collision |\n")
	b.WriteString("|---|---|---|---:|---:|---:|---|\n")
	for _, c := range r.Cells {
		b.WriteString(fmt.Sprintf("| %s | %s | %s | %.2f | %.2f | %.2f | %v |\n",
			c.Scenario, c.Attack, c.Defense, c.MinGap, capTTC(c.MinTTC), c.MeanGapErr, c.Collision))
	}
	return b.String()
}

// CSV renders the matrix machine-readably; float fields use exact 'g'
// formatting so equal reports imply bit-equal metrics (an unbounded
// MinTTC prints as +Inf). Name fields are quoted when custom axes use
// names containing separators.
func (r MatrixReport) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,attack,defense,seed,steps,min_gap_m,min_ttc_s,mean_gap_err_m,collision\n")
	for _, c := range r.Cells {
		b.WriteString(fmt.Sprintf("%s,%s,%s,%d,%d,%s,%s,%s,%v\n",
			csvField(c.Scenario), csvField(c.Attack), csvField(c.Defense), c.Seed, c.Steps,
			gfloat(c.MinGap), gfloat(c.MinTTC), gfloat(c.MeanGapErr), c.Collision))
	}
	return b.String()
}

// csvField applies RFC 4180 quoting when the value needs it.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

type tally struct {
	attack, defense   string
	collisions, total int
}

// collisionTallies folds cells into per-(attack, defense) collision
// counts, in first-appearance order.
func (r MatrixReport) collisionTallies() []tally {
	var out []tally
	idx := map[string]int{}
	for _, c := range r.Cells {
		key := c.Attack + "\x00" + c.Defense
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, tally{attack: c.Attack, defense: c.Defense})
		}
		out[i].total++
		if c.Collision {
			out[i].collisions++
		}
	}
	return out
}

// capTTC caps an infinite/huge TTC for fixed-width display.
func capTTC(v float64) float64 {
	if v > 999 {
		return 999
	}
	return v
}

func gfloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
