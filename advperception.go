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
// then a Spec may list "my-attack" and "my-maneuver" on its axes. Runs
// take a context.Context — cancellation stops grid dispatch promptly, and
// a cancelled checkpointed sweep resumes from its JSONL stream. Observer
// sinks receive cell started/finished/progress events; MergeSweeps joins
// the shards of a distributed sweep back into one verified grid.
//
// Run every experiment through a Spec: Experiment.Run here, or
// `advrepro run -spec FILE` on the command line (specs/ holds the
// committed quick and paper grids). A matrix Spec is the one-shard case
// of a sweep Spec, so merging a sweep's shards reproduces the matrix run
// byte for byte; golden tests pin the tables and the grid outputs.
//
// The perception stack is batch-first: Regressor.PredictBatch and
// Detector.ForwardBatch/DetectBatch run whole frame batches through one
// k-major GEMM dispatch per layer (a conv reads its taps in place from a
// padded copy of the input; nothing is lowered), bit-identical
// frame-for-frame to the per-frame calls.
//
// The serving layer (NewServer; `advrepro serve`) exposes the same core
// as a long-lived daemon: POST a Spec, stream its Observer events as
// NDJSON, and repeat submissions are answered from a content-addressed
// result cache keyed by SpecHash — the Spec determinism guarantee makes
// a hit provably identical to a fresh compute. A ModelStore caches
// trained victim weights on disk so environments warm-start across
// processes.
//
// The fleet dispatcher (Dispatch; `advrepro dispatch`) fans a grid
// spec's shards over a worker fleet — in-process pools, advrepro-run
// subprocesses, serve daemons — and recovers from worker failure
// automatically: crashed shards re-dispatch with capped exponential
// backoff and resume from their JSONL lane files, stragglers hedge to a
// second worker with first-writer-wins dedup, and repeat offenders are
// quarantined. The merged report is byte-identical to an unsharded run
// of the same Spec regardless of failures.
package advperception

import (
	"context"

	"repro/internal/attack"
	"repro/internal/box"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/detect"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/imaging"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Core data types.
type (
	// Image is the CHW float image every model consumes.
	Image = imaging.Image
	// Box is an axis-aligned bounding box in pixels.
	Box = box.Box
	// RNG is the deterministic random source used everywhere.
	RNG = xrand.RNG

	// Detector is the TinyDet stop-sign detector.
	Detector = detect.Detector
	// Regressor is the DistNet lead-distance regressor.
	Regressor = regress.Regressor

	// SignScene is a generated stop-sign example with ground truth.
	SignScene = scene.SignScene
	// DriveScene is a generated driving frame with ground truth.
	DriveScene = scene.DriveScene
	// SignSet is a stop-sign dataset.
	SignSet = dataset.SignSet
	// DriveSet is a driving-frame dataset.
	DriveSet = dataset.DriveSet

	// Objective is the attacker's view of a victim model.
	Objective = attack.Objective
	// Preprocessor is an input-level defense.
	Preprocessor = defense.Preprocessor
	// IntoPreprocessor is a defense that can reuse a caller-held frame.
	IntoPreprocessor = defense.IntoPreprocessor
	// DetectionScores bundles mAP@50 / precision / recall.
	DetectionScores = metrics.DetectionScores

	// Env is the experiment environment (datasets + trained victims).
	Env = eval.Env
	// Preset sizes an experiment run.
	Preset = eval.Preset
	// Kind names one attack in the harness.
	Kind = eval.Kind

	// Scenario is a named closed-loop lead maneuver.
	Scenario = pipeline.Scenario
	// MatrixConfig declares a scenario × attack × defense grid.
	MatrixConfig = eval.MatrixConfig
	// MatrixCell is one executed grid point with its safety metrics.
	MatrixCell = eval.MatrixCell
	// MatrixReport aggregates a grid run (text/markdown/CSV formatting).
	MatrixReport = eval.MatrixReport
	// AttackSpec is a named runtime-attacker factory for matrix cells.
	AttackSpec = eval.AttackSpec
	// DefenseSpec is a named defense factory for matrix cells.
	DefenseSpec = eval.DefenseSpec

	// SweepConfig declares one shard of a checkpointed grid sweep.
	SweepConfig = eval.SweepConfig
	// SweepReport is one shard's slice of the grid, in global index order.
	SweepReport = eval.SweepReport

	// Experiment is the v2 core: a trained environment running
	// serializable Specs under a context with observers.
	Experiment = exp.Experiment
	// Option configures NewExperiment.
	Option = exp.Option
	// Spec is the serializable address of one run.
	Spec = exp.Spec
	// MatrixSpec declares a grid by registry names.
	MatrixSpec = exp.MatrixSpec
	// SweepSpec declares one shard of a checkpointed sweep.
	SweepSpec = exp.SweepSpec
	// RunResult is the outcome of one spec run (text + typed payload).
	RunResult = exp.Result
	// AttackDef registers one attack (dataset and/or runtime capability).
	AttackDef = exp.AttackDef
	// DefenseDef registers one input-level defense.
	DefenseDef = exp.DefenseDef
	// Observer receives run progress events.
	Observer = exp.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = exp.ObserverFunc
	// Event is one progress notification from a grid run.
	Event = exp.Event
	// EventKind discriminates observer events.
	EventKind = exp.EventKind
	// ProgressPrinter is the stock CLI progress observer.
	ProgressPrinter = exp.ProgressPrinter
	// CellID identifies one grid point (index, seed, axis names).
	CellID = eval.CellID

	// ResultCache stores serialized result payloads by canonical spec
	// hash (the serving layer's content-addressed cache).
	ResultCache = exp.ResultCache
	// ModelStore caches trained victim weights on disk, keyed by model
	// kind, architecture version and preset.
	ModelStore = eval.ModelStore

	// Server is the advrepro daemon: spec-addressable evaluation over
	// HTTP with NDJSON event streaming and single-flight deduplication.
	Server = serve.Server
	// ServerConfig configures NewServer.
	ServerConfig = serve.Config
	// WireEvent is one NDJSON line of a /run stream; a cell-done line
	// carries the cell and its checkpoint record.
	WireEvent = serve.WireEvent
	// WireResult is the terminal (and cached) payload of a /run stream.
	WireResult = serve.ResultPayload
	// StreamConfig configures StreamSpec's reconnecting NDJSON consumer.
	StreamConfig = serve.StreamConfig

	// SweepRecord is one JSONL checkpoint line as a typed value: a
	// finished grid cell plus the run configuration that produced it.
	// Lanes, store segments, wire events and cached payloads carry it.
	SweepRecord = eval.SweepRecord
	// Grid is what a SweepRecord must match — grid identity plus run
	// stamp — and the codec over it: Record, Validate, Load, LoadBytes,
	// Merge. Spec.Grid derives it.
	Grid = eval.Grid

	// Transport executes one shard spec on some worker (fleet dispatch).
	Transport = dispatch.Transport
	// DispatchWorker is one dispatch target: a transport plus a name.
	DispatchWorker = dispatch.Worker
	// DispatchConfig configures a fleet dispatch run.
	DispatchConfig = dispatch.Config
	// DispatchReport is a dispatch run's outcome: the merged, verified
	// grid plus the recovery bookkeeping (retries, hedges, quarantines).
	DispatchReport = dispatch.Report
	// PoolTransport runs shards in-process on a shared Experiment.
	PoolTransport = dispatch.PoolTransport
	// ExecTransport runs shards as local advrepro-run subprocesses.
	ExecTransport = dispatch.ExecTransport
	// HTTPTransport runs shards on a remote serve daemon.
	HTTPTransport = dispatch.HTTPTransport
)

// Spec kinds, re-exported for spec-building callers.
const (
	SpecTable1    = exp.KindTable1
	SpecTable2    = exp.KindTable2
	SpecTable3    = exp.KindTable3
	SpecTable4    = exp.KindTable4
	SpecTable5    = exp.KindTable5
	SpecFig2      = exp.KindFig2
	SpecPipeline  = exp.KindPipeline
	SpecAblations = exp.KindAblations
	SpecMatrix    = exp.KindMatrix
	SpecSweep     = exp.KindSweep
)

// Observer event kinds.
const (
	EventRunStart  = exp.EventRunStart
	EventCellStart = exp.EventCellStart
	EventCellDone  = exp.EventCellDone
	EventLog       = exp.EventLog
	EventRunDone   = exp.EventRunDone
)

// NewExperiment builds the v2 experiment core: it trains the victims
// under the configured preset (or adopts one via WithEnv) and runs Specs.
func NewExperiment(ctx context.Context, opts ...Option) (*Experiment, error) {
	return exp.New(ctx, opts...)
}

// Experiment options (see exp.New).
var (
	WithPreset      = exp.WithPreset
	WithPresetName  = exp.WithPresetName
	WithEnv         = exp.WithEnv
	WithLogger      = exp.WithLogger
	WithWorkers     = exp.WithWorkers
	WithObserver    = exp.WithObserver
	WithArtifacts   = exp.WithArtifacts
	WithArtifactDir = exp.WithArtifactDir
)

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(data []byte) (Spec, error) { return exp.ParseSpec(data) }

// CanonicalSpec returns the canonical encoding of a spec: defaults
// resolved, execution-only fields dropped, deterministic field order.
// Specs that address the same run canonicalize to the same bytes.
func CanonicalSpec(s Spec) ([]byte, error) { return exp.CanonicalSpec(s) }

// SpecHash returns the content address of a spec's result: the SHA-256
// of its canonical encoding. Equal hashes denote bit-identical runs.
func SpecHash(s Spec) (string, error) { return exp.SpecHash(s) }

// NewModelStore opens (creating if needed) a trained-model artifact
// directory for WithArtifacts / ServerConfig.
func NewModelStore(dir string) (*ModelStore, error) { return eval.NewModelStore(dir) }

// NewServer builds the evaluation daemon's serving core; mount
// Server.Handler on an http.Server to expose it.
func NewServer(ctx context.Context, cfg ServerConfig) *Server { return serve.New(ctx, cfg) }

// StreamSpec POSTs a spec to a serve daemon's /run and consumes the
// NDJSON stream to its terminal result, reconnecting through transient
// drops up to the configured bound. Returns the terminal payload and
// whether it was served from the daemon's cache.
func StreamSpec(ctx context.Context, baseURL string, specJSON []byte, cfg StreamConfig) (*WireResult, bool, error) {
	return serve.StreamSpec(ctx, baseURL, specJSON, cfg)
}

// Dispatch fans a grid spec's shards over a worker fleet and recovers
// from worker failure automatically — retry with backoff and crash-exact
// checkpoint resume, straggler hedging, worker quarantine. The returned
// report is byte-identical to an unsharded run of the same spec.
func Dispatch(ctx context.Context, cfg DispatchConfig) (*DispatchReport, error) {
	return dispatch.Run(ctx, cfg)
}

// Registries: attacks, defenses and scenarios are registered by name and
// addressed from Specs — an axis is a registration, not a code change.
var (
	RegisterAttack   = exp.RegisterAttack
	RegisterDefense  = exp.RegisterDefense
	RegisterScenario = exp.RegisterScenario
	LookupAttack     = exp.LookupAttack
	LookupDefense    = exp.LookupDefense
	LookupScenario   = exp.LookupScenario
	Attacks          = exp.Attacks
	Defenses         = exp.Defenses
	ScenarioNames    = exp.Scenarios
)

// MergeSweeps joins the JSONL shard files of a distributed sweep back
// into the combined grid report, verifying coverage and per-cell
// consistency against the spec's grid identity.
func MergeSweeps(s Spec, paths []string) (MatrixReport, error) { return exp.MergeSpec(s, paths) }

// MultiObserver fans events out to every non-nil observer.
func MultiObserver(obs ...Observer) Observer { return exp.MultiObserver(obs...) }

// Attack kinds, re-exported for harness callers.
const (
	KindNone     = eval.KindNone
	KindGaussian = eval.KindGaussian
	KindFGSM     = eval.KindFGSM
	KindAPGD     = eval.KindAPGD
	KindSimBA    = eval.KindSimBA
	KindRP2      = eval.KindRP2
	KindCAP      = eval.KindCAP
)

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return xrand.New(seed) }

// NewDetector builds an untrained TinyDet for size×size inputs.
func NewDetector(rng *RNG, size int) *Detector { return detect.New(rng, size) }

// NewRegressor builds an untrained DistNet for size×size inputs.
func NewRegressor(rng *RNG, size int) *Regressor { return regress.New(rng, size) }

// DefaultSignConfig returns the stop-sign scene generator configuration.
func DefaultSignConfig() scene.SignConfig { return scene.DefaultSignConfig() }

// DefaultDriveConfig returns the driving scene generator configuration.
func DefaultDriveConfig() scene.DriveConfig { return scene.DefaultDriveConfig() }

// GenerateSignSet renders n stop-sign scenes.
func GenerateSignSet(rng *RNG, cfg scene.SignConfig, n int) *SignSet {
	return dataset.GenerateSignSet(rng, cfg, n)
}

// GenerateDriveSet renders n driving frames with uniform distances.
func GenerateDriveSet(rng *RNG, cfg scene.DriveConfig, n int, minZ, maxZ float64) *DriveSet {
	return dataset.GenerateDriveSet(rng, cfg, n, minZ, maxZ)
}

// Quick returns the fast preset (tests/benchmarks).
func Quick() Preset { return eval.Quick() }

// Paper returns the preset used for EXPERIMENTS.md.
func Paper() Preset { return eval.Paper() }

// NewEnv generates datasets and trains the victim models.
func NewEnv(p Preset) *Env { return eval.NewEnv(p) }

// Attacks (low-level API; the Env methods cover the common protocol).
var (
	// FGSM is the single-step fast gradient sign attack.
	FGSM = attack.FGSM
	// AutoPGD is the adaptive iterative gradient attack.
	AutoPGD = attack.AutoPGD
	// SimBA is the query-based black-box attack.
	SimBA = attack.SimBA
	// RP2 is the physical sign-patch attack.
	RP2 = attack.RP2
	// GaussianNoise is the unoptimised noise attack.
	GaussianNoise = attack.Gaussian
	// BoxMask restricts a perturbation to a bounding box.
	BoxMask = attack.BoxMask
	// FGSMInto is FGSM writing into a caller-held frame (allocation-free
	// per-frame attacks; see the README's Performance section).
	FGSMInto = attack.FGSMInto
	// FGSMBatch and AutoPGDBatch run the gradient attacks over a block of
	// frames with fused forward/backward passes — bit-identical per frame
	// to the per-frame attacks (see the README's Performance section).
	FGSMBatch    = attack.FGSMBatch
	AutoPGDBatch = attack.AutoPGDBatch
)

// BatchObjective is the batched attacker's view of a victim model.
type BatchObjective = attack.BatchObjective

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
)

// RunPipeline executes the closed-loop ACC scenario.
func RunPipeline(cfg pipeline.Config) sim.Result { return pipeline.Run(cfg) }

// DefaultPipelineConfig returns the cruising scenario around a regressor.
func DefaultPipelineConfig(reg *Regressor) pipeline.Config {
	return pipeline.DefaultConfig(reg)
}

// Scenarios returns the registry of named closed-loop lead maneuvers: the
// scenario axis a matrix or sweep Spec draws from (MatrixSpec.Scenarios
// names them).
func Scenarios() []Scenario { return pipeline.Scenarios() }

// FindScenario returns the registered scenario with the given name.
func FindScenario(name string) (Scenario, bool) { return pipeline.FindScenario(name) }
