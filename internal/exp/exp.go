package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/eval"
)

// Observer re-exports: the exp package is the public face of the event
// stream the grid runners emit.
type (
	// Observer receives run progress events (concurrency-safe Observe).
	Observer = eval.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = eval.ObserverFunc
	// Event is one progress notification.
	Event = eval.Event
	// EventKind discriminates events.
	EventKind = eval.EventKind
)

// Observer event kinds.
const (
	EventRunStart  = eval.EventRunStart
	EventCellStart = eval.EventCellStart
	EventCellDone  = eval.EventCellDone
	EventLog       = eval.EventLog
	EventRunDone   = eval.EventRunDone
)

// MultiObserver fans events out to every non-nil observer.
func MultiObserver(obs ...Observer) Observer { return eval.MultiObserver(obs...) }

// config collects the functional options of New.
type config struct {
	preset    eval.Preset
	presetSet bool
	env       *eval.Env
	logf      func(format string, args ...any)
	workers   int
	observers []Observer
	store     *eval.ModelStore
	err       error // first option error, surfaced by New
}

// Option configures Experiment construction.
type Option func(*config)

// WithPreset selects the experiment preset (dataset sizes, training
// schedules, budgets). Default: eval.Quick().
func WithPreset(p eval.Preset) Option {
	return func(c *config) { c.preset = p; c.presetSet = true }
}

// WithPresetName selects a named preset ("quick" or "paper"); unknown
// names surface as an error from New.
func WithPresetName(name string) Option {
	return func(c *config) {
		p, err := PresetByName(name)
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			return
		}
		c.preset = p
		c.presetSet = true
	}
}

// WithEnv adopts an already-built environment instead of training a new
// one — an Experiment view over existing victims (tests, notebooks,
// multi-spec sessions share one expensive Env). The environment is
// shared, not copied: combining WithEnv with WithLogger or WithWorkers
// reconfigures the adopted Env in place, visibly to every other
// Experiment built over it.
func WithEnv(e *eval.Env) Option {
	return func(c *config) { c.env = e }
}

// WithLogger installs the progress logger before anything trains, so
// dataset generation and victim training log through it too. Library code
// logs nowhere else.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(c *config) { c.logf = logf }
}

// WithWorkers caps the worker pool of every parallel run (0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithObserver subscribes observers to every run of the Experiment; they
// receive the run/cell event stream alongside any per-spec observer.
func WithObserver(obs ...Observer) Option {
	return func(c *config) { c.observers = append(c.observers, obs...) }
}

// WithArtifacts backs environment construction with a trained-model
// artifact store: victim weights cached under the preset key are loaded
// instead of trained (bit-identical, training is deterministic), and a
// cold construction stores what it trains. Ignored when WithEnv adopts an
// already-built environment.
func WithArtifacts(store *eval.ModelStore) Option {
	return func(c *config) { c.store = store }
}

// WithArtifactDir is WithArtifacts over a directory path, creating the
// store (and directory) on demand; errors surface from New.
func WithArtifactDir(dir string) Option {
	return func(c *config) {
		store, err := eval.NewModelStore(dir)
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			return
		}
		c.store = store
	}
}

// Experiment is the v2 core: a trained environment plus the registries,
// running serializable Specs under a context with observers streaming
// progress. Every legacy entrypoint — the table runners, the scenario
// matrix, the sharded sweep — routes through Run.
type Experiment struct {
	env *eval.Env
	obs Observer
}

// New builds an Experiment: it resolves options, then generates datasets
// and trains the victim models under the preset (unless WithEnv adopted an
// existing environment). Construction respects ctx — a cancelled context
// aborts between the expensive stages.
func New(ctx context.Context, opts ...Option) (*Experiment, error) {
	c := config{preset: eval.Quick()}
	for _, opt := range opts {
		opt(&c)
	}
	if c.err != nil {
		return nil, c.err
	}
	env := c.env
	if env == nil {
		var err error
		env, err = eval.NewEnvCached(ctx, c.preset, c.logf, c.store)
		if err != nil {
			return nil, err
		}
	} else {
		if c.presetSet && env.Preset.Name != c.preset.Name {
			return nil, fmt.Errorf("exp: WithEnv preset %q conflicts with WithPreset %q", env.Preset.Name, c.preset.Name)
		}
		if c.logf != nil {
			env.Logf = c.logf
		}
	}
	if c.workers != 0 {
		env.Workers = c.workers
	}
	return &Experiment{env: env, obs: MultiObserver(c.observers...)}, nil
}

// Env exposes the underlying environment (datasets, victims, budgets).
func (x *Experiment) Env() *eval.Env { return x.env }

// Result is the outcome of one spec run: the formatted report plus the
// typed payload of whichever experiment the spec addressed.
type Result struct {
	Spec Spec
	// Text is the experiment's formatted report (the paper-shaped table,
	// the matrix grid, the shard summary).
	Text string

	Table1   *eval.TableI
	Table2   *eval.TableII
	Table3   *eval.TableIII
	Table4   *eval.TableIV
	Table5   *eval.TableV
	Fig2     *eval.Fig2
	Pipeline []eval.PipelineRow
	Matrix   *eval.MatrixReport
	Sweep    *eval.SweepReport
}

// Run executes the spec against this environment. Grid kinds (matrix,
// sweep) stream cell events to the Experiment's observers, honour ctx
// cancellation promptly, and are bit-identical to the legacy
// entrypoints. Table kinds check ctx only at entry: once a table starts
// it runs to completion (their runners predate the context plumbing —
// fine-grained table cancellation is future work). The spec's preset
// must match the environment's (an empty spec preset matches any).
func (x *Experiment) Run(ctx context.Context, s Spec) (*Result, error) {
	return x.RunObserved(ctx, s, nil)
}

// RunObserved is Run with a per-run observer subscribed alongside the
// Experiment's own: the serving layer hands each request its own event
// sink this way. Grid kinds stream the runner's native event sequence;
// non-grid kinds (tables, fig2, pipeline, ablations) have no cell
// granularity, so RunObserved brackets them with a synthetic
// run-start/run-done pair (Total 1) — every observed run therefore emits
// a well-formed run-start … run-done sequence regardless of kind.
func (x *Experiment) RunObserved(ctx context.Context, s Spec, obs Observer) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Preset != "" && s.Preset != x.env.Preset.Name {
		return nil, fmt.Errorf("exp: spec preset %q does not address this environment (preset %q)", s.Preset, x.env.Preset.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runObs := MultiObserver(x.obs, obs)

	if s.Kind != KindMatrix && s.Kind != KindSweep {
		if runObs != nil {
			runObs.Observe(Event{Kind: EventRunStart, Total: 1})
		}
		res, err := x.runTable(s)
		if runObs != nil {
			runObs.Observe(Event{Kind: EventRunDone, Total: 1, Err: err})
		}
		return res, err
	}

	res := &Result{Spec: s}
	switch s.Kind {
	case KindMatrix:
		cfg, err := s.matrixConfig()
		if err != nil {
			return nil, err
		}
		cfg.Observer = MultiObserver(runObs, cfg.Observer)
		rep, err := x.env.RunMatrixCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res.Matrix, res.Text = &rep, rep.Format()
	case KindSweep:
		cfg, err := s.sweepConfig()
		if err != nil {
			return nil, err
		}
		cfg.Matrix.Observer = MultiObserver(runObs, cfg.Matrix.Observer)
		rep, err := x.env.RunSweepCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res.Sweep = &rep
		m := rep.Matrix()
		res.Matrix, res.Text = &m, m.Format()
	}
	return res, nil
}

// runTable executes the non-grid spec kinds (validated by the caller).
func (x *Experiment) runTable(s Spec) (*Result, error) {
	res := &Result{Spec: s}
	switch s.Kind {
	case KindTable1:
		t := x.env.RunTableI()
		res.Table1, res.Text = &t, t.Format()
	case KindTable2:
		t := x.env.RunTableII()
		res.Table2, res.Text = &t, t.Format()
	case KindTable3:
		t := x.env.RunTableIII()
		res.Table3, res.Text = &t, t.Format()
	case KindTable4:
		t := x.env.RunTableIV()
		res.Table4, res.Text = &t, t.Format()
	case KindTable5:
		t := x.env.RunTableV()
		res.Table5, res.Text = &t, t.Format()
	case KindFig2:
		f := x.env.RunFig2()
		res.Fig2, res.Text = &f, f.Format()
	case KindPipeline:
		rows := eval.PipelineScenarios(x.env)
		res.Pipeline, res.Text = rows, formatPipeline(rows)
	case KindAblations:
		res.Text = formatAblations(x.env)
	default:
		return nil, fmt.Errorf("exp: unhandled spec kind %q", s.Kind)
	}
	return res, nil
}

// MergeSpec joins the JSONL shard files of a distributed sweep back into
// the combined grid report, verifying coverage and per-cell consistency
// against the spec's grid identity. It needs no trained environment —
// merge runs on any machine holding the shard files.
func MergeSpec(s Spec, paths []string) (eval.MatrixReport, error) {
	g, err := s.Grid()
	if err != nil {
		return eval.MatrixReport{}, err
	}
	return g.Merge(paths)
}

// formatPipeline renders the closed-loop demo rows (clean / attacked /
// defended), the safety consequence the Table I errors imply.
func formatPipeline(rows []eval.PipelineRow) string {
	var b strings.Builder
	b.WriteString("CLOSED-LOOP ACC (lead brakes at t=4s for 2s)\n")
	b.WriteString(fmt.Sprintf("%-24s %10s %10s %10s\n", "Configuration", "MinGap(m)", "MinTTC(s)", "Collision"))
	for _, row := range rows {
		b.WriteString(fmt.Sprintf("%-24s %10.2f %10.2f %10v\n", row.Name, row.Result.MinGap, cappedTTC(row.Result.MinTTC), row.Result.Collision))
	}
	return b.String()
}

func cappedTTC(v float64) float64 {
	if v > 999 {
		return 999
	}
	return v
}

// formatAblations exercises the four design-choice ablations.
func formatAblations(env *eval.Env) string {
	var b strings.Builder
	b.WriteString("ABLATIONS\n")
	a, p := env.APGDvsPGD()
	b.WriteString(fmt.Sprintf("Auto-PGD vs plain PGD, near-range induced error: %.2f m vs %.2f m\n", a, p))
	w, c := env.CAPWarmVsCold()
	b.WriteString(fmt.Sprintf("CAP warm-start vs cold-start, mean induced error: %.2f m vs %.2f m\n", w, c))
	eot := env.RP2EOTSweep([]int{1, 4})
	b.WriteString(fmt.Sprintf("RP2 EOT samples {1,4} -> post-attack mAP50: %.2f%%, %.2f%%\n", 100*eot[0], 100*eot[1]))
	steps := env.DiffPIRStepSweep([]int{4, 12})
	b.WriteString(fmt.Sprintf("DiffPIR steps {4,12} -> restored mAP50: %.2f%%, %.2f%%\n", 100*steps[0], 100*steps[1]))
	return b.String()
}
