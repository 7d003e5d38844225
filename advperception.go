// Package advperception is the public facade of the reproduction of
// "Revisiting Adversarial Perception Attacks and Defense Methods on
// Autonomous Driving Systems" (DSN 2025). It re-exports the library's
// building blocks so downstream users need a single import:
//
//   - victim models: the TinyDet stop-sign detector (YOLOv8 stand-in) and
//     the DistNet lead-distance regressor (Supercombo stand-in);
//   - the six attacks (Gaussian, FGSM, Auto-PGD, SimBA, RP2, CAP-Attack);
//   - the four defense families (image preprocessing, adversarial
//     training, contrastive learning, diffusion/DiffPIR);
//   - the synthetic scene generators and the closed-loop ACC pipeline;
//   - the v2 experiment core behind every entrypoint: registries, Specs,
//     Observers, and the Experiment runner.
//
// The programs under examples/ use nothing else, and each runs as a test.
//
// # Experiment API v2
//
// Every experiment — the paper's Tables I–V and Figures 1–2, the
// closed-loop scenario matrix, one shard of a distributed sweep — is
// addressed by a serializable Spec and executed by one Experiment core:
//
//	x, err := advperception.NewExperiment(ctx,
//	    advperception.WithPresetName("quick"),
//	    advperception.WithLogger(log.Printf),
//	    advperception.WithObserver(&advperception.ProgressPrinter{W: os.Stdout}))
//	res, err := x.Run(ctx, advperception.Spec{Kind: advperception.SpecMatrix})
//	fmt.Print(res.Text)
//
// Specs are JSON round-trippable (ParseSpec / Spec.JSON), validated
// against string-keyed registries, and equal specs denote bit-identical
// runs. New attacks, defenses and scenarios are registrations, not code
// changes:
//
//	advperception.RegisterAttack(advperception.AttackDef{Name: "my-attack", Runtime: ...})
//	advperception.RegisterScenario(advperception.Scenario{Name: "my-maneuver", ...})
//
// then a Spec may list "my-attack" and "my-maneuver" on its axes, and
// ScenarioNames and LookupScenario see the new scenario. Runs take a
// context.Context — cancellation stops grid dispatch promptly, and a
// cancelled checkpointed sweep resumes from its JSONL stream. Observer
// sinks receive cell started/finished/progress events; MergeSweeps joins
// the shards of a distributed sweep back into one verified grid.
//
// Run every experiment through a Spec: Experiment.Run here, or
// `advrepro run -spec FILE` on the command line (specs/ holds the
// committed quick and paper grids). A matrix Spec is the one-shard case
// of a sweep Spec, so merging a sweep's shards reproduces the matrix run
// byte for byte; golden tests pin the tables and the grid outputs. The
// serving daemon and the fleet dispatcher are the `advrepro serve` and
// `advrepro dispatch` subcommands.
package advperception

import (
	"context"

	"repro/internal/attack"
	"repro/internal/box"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/detect"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Core data types.
type (
	// Image is the CHW float image every model consumes.
	Image = imaging.Image
	// Box is an axis-aligned bounding box in pixels.
	Box = box.Box
	// Regressor is the DistNet lead-distance regressor.
	Regressor = regress.Regressor

	// DetectionObjective is the attacker's view of the detector: the
	// detection loss against the ground-truth boxes GT.
	DetectionObjective = attack.DetectionObjective
	// RegressionObjective is the attacker's view of the regressor: the
	// predicted distance, which the attacks push up.
	RegressionObjective = attack.RegressionObjective
	// Preprocessor is an input-level defense.
	Preprocessor = defense.Preprocessor
	// DiffPIRDefense restores frames with a trained diffusion prior.
	DiffPIRDefense = defense.DiffPIRDefense

	// Preset sizes an experiment run.
	Preset = eval.Preset
	// Scenario is a named closed-loop lead maneuver.
	Scenario = pipeline.Scenario

	// Spec is the serializable address of one run.
	Spec = exp.Spec
	// MatrixSpec declares a grid by registry names.
	MatrixSpec = exp.MatrixSpec
	// SweepSpec declares one shard of a checkpointed sweep.
	SweepSpec = exp.SweepSpec
	// AttackDef registers one attack (dataset and/or runtime capability).
	AttackDef = exp.AttackDef
	// ObserverFunc adapts a function to an Observer.
	ObserverFunc = exp.ObserverFunc
	// Event is one progress notification from a grid run.
	Event = exp.Event
	// ProgressPrinter is the stock CLI progress observer.
	ProgressPrinter = exp.ProgressPrinter
)

// Spec kinds of the grid runs; the table kinds are the strings "table1"
// … "table5", "fig2", "pipeline" and "ablations".
const (
	SpecMatrix = exp.KindMatrix
	SpecSweep  = exp.KindSweep
)

// EventCellDone marks a finished grid cell.
const EventCellDone = exp.EventCellDone

// NewExperiment builds the v2 experiment core: it trains the victims
// under the configured preset (or adopts one via WithEnv) and runs Specs.
func NewExperiment(ctx context.Context, opts ...exp.Option) (*exp.Experiment, error) {
	return exp.New(ctx, opts...)
}

// Experiment options (see exp.New).
var (
	WithPreset     = exp.WithPreset
	WithPresetName = exp.WithPresetName
	WithEnv        = exp.WithEnv
	WithLogger     = exp.WithLogger
	WithWorkers    = exp.WithWorkers
	WithObserver   = exp.WithObserver
)

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(data []byte) (Spec, error) { return exp.ParseSpec(data) }

// Registries: attacks, defenses and scenarios are registered by name and
// addressed from Specs — an axis is a registration, not a code change.
// ScenarioNames and LookupScenario see the built-in scenarios and every
// registration.
var (
	RegisterAttack   = exp.RegisterAttack
	RegisterScenario = exp.RegisterScenario
	LookupAttack     = exp.LookupAttack
	LookupScenario   = exp.LookupScenario
	Attacks          = exp.Attacks
	Defenses         = exp.Defenses
	ScenarioNames    = exp.Scenarios
)

// MergeSweeps joins the JSONL shard files of a distributed sweep back
// into the combined grid report, verifying coverage and per-cell
// consistency against the spec's grid identity.
func MergeSweeps(s Spec, paths []string) (eval.MatrixReport, error) { return exp.MergeSpec(s, paths) }

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *xrand.RNG { return xrand.New(seed) }

// NewDetector builds an untrained TinyDet for size×size inputs.
func NewDetector(rng *xrand.RNG, size int) *detect.Detector { return detect.New(rng, size) }

// NewRegressor builds an untrained DistNet for size×size inputs.
func NewRegressor(rng *xrand.RNG, size int) *Regressor { return regress.New(rng, size) }

// Victim training defaults and labels.
var (
	// DefaultDetectorTrainConfig is TinyDet's training schedule.
	DefaultDetectorTrainConfig = detect.DefaultTrainConfig
	// DefaultRegressorTrainConfig is DistNet's training schedule.
	DefaultRegressorTrainConfig = regress.DefaultTrainConfig
	// GTBoxes returns a stop-sign scene's ground-truth boxes.
	GTBoxes = detect.GTBoxes
)

// DefaultSignConfig returns the stop-sign scene generator configuration.
func DefaultSignConfig() scene.SignConfig { return scene.DefaultSignConfig() }

// DefaultDriveConfig returns the driving scene generator configuration.
func DefaultDriveConfig() scene.DriveConfig { return scene.DefaultDriveConfig() }

// GenerateSignSet renders n stop-sign scenes.
func GenerateSignSet(rng *xrand.RNG, cfg scene.SignConfig, n int) *dataset.SignSet {
	return dataset.GenerateSignSet(rng, cfg, n)
}

// GenerateDriveSet renders n driving frames with uniform distances.
func GenerateDriveSet(rng *xrand.RNG, cfg scene.DriveConfig, n int, minZ, maxZ float64) *dataset.DriveSet {
	return dataset.GenerateDriveSet(rng, cfg, n, minZ, maxZ)
}

// Quick returns the fast preset (tests/benchmarks).
func Quick() Preset { return eval.Quick() }

// Paper returns the preset used for EXPERIMENTS.md.
func Paper() Preset { return eval.Paper() }

// Attacks (the Experiment runs cover the paper's protocol).
var (
	// FGSM is the single-step fast gradient sign attack.
	FGSM = attack.FGSM
	// AutoPGD is the adaptive iterative gradient attack.
	AutoPGD = attack.AutoPGD
	// DefaultAPGDConfig is Auto-PGD's schedule at budget eps.
	DefaultAPGDConfig = attack.DefaultAPGDConfig
	// SimBA is the query-based black-box attack.
	SimBA = attack.SimBA
	// DefaultSimBAConfig is SimBA's budget and step count.
	DefaultSimBAConfig = attack.DefaultSimBAConfig
	// RP2 is the physical sign-patch attack.
	RP2 = attack.RP2
	// DefaultRP2Config is RP2's optimisation schedule.
	DefaultRP2Config = attack.DefaultRP2Config
	// GaussianNoise is the unoptimised noise attack.
	GaussianNoise = attack.Gaussian
	// BoxMask restricts a perturbation to a bounding box.
	BoxMask = attack.BoxMask
)

// NewCAP returns the stateful runtime CAP attacker.
func NewCAP(cfg attack.CAPConfig) *attack.CAP { return attack.NewCAP(cfg) }

// DefaultCAPConfig returns the CAP budget used in the experiments.
func DefaultCAPConfig() attack.CAPConfig { return attack.DefaultCAPConfig() }

// Defenses.
var (
	// NewMedianBlur is the median-filtering defense.
	NewMedianBlur = defense.NewMedianBlur
	// NewBitDepth is the bit-depth-reduction defense.
	NewBitDepth = defense.NewBitDepth
	// NewRandomization is the random resize-pad defense.
	NewRandomization = defense.NewRandomization
	// AdvDriveSet attacks every frame of a driving set, the adversarial
	// training set of a regressor fine-tune (Regressor.TrainImages).
	AdvDriveSet = defense.AdvDriveSet
	// NewDiffusion builds an untrained diffusion prior for DiffPIR.
	NewDiffusion = defense.NewDiffusion
	// DefaultDiffusionConfig is the prior's noise schedule and training.
	DefaultDiffusionConfig = defense.DefaultDiffusionConfig
	// DefaultDiffPIRConfig is DiffPIR's restoration schedule.
	DefaultDiffPIRConfig = defense.DefaultDiffPIRConfig
)

// RunPipeline executes the closed-loop ACC scenario.
func RunPipeline(cfg pipeline.Config) sim.Result { return pipeline.Run(cfg) }

// DefaultPipelineConfig returns the cruising scenario around a regressor.
func DefaultPipelineConfig(reg *Regressor) pipeline.Config {
	return pipeline.DefaultConfig(reg)
}
