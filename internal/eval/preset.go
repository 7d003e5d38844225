// Package eval drives the paper's experiments end to end: it generates
// datasets, trains the victim models, runs every attack and defense, and
// formats the result rows the way Tables I–V and Figures 1–2 report them.
//
// Three presets exist: Micro (about a second, used by tests), Quick
// (seconds, used by benchmarks and the examples) and Paper (minutes, the
// configuration whose outputs are recorded in EXPERIMENTS.md).
package eval

// Preset bundles every dataset size, training schedule and attack budget
// used by the experiment harness.
type Preset struct {
	Name string

	// Dataset sizes.
	SignTrain      int // training stop-sign scenes
	SignTest       int // test stop-sign scenes
	DriveTrain     int // training driving frames
	DrivePerBucket int // test frames per 20 m distance bucket

	// Model training.
	DetEpochs int
	RegEpochs int

	// Defense training.
	AdvEpochs         int // adversarial fine-tuning epochs
	ContrastiveEpochs int
	DiffusionSteps    int // DDPM optimisation steps
	DiffPIRSteps      int // reverse steps per restoration

	// Attack budgets.
	APGDSteps  int
	SimBASteps int
	RP2Iters   int

	Seed int64
}

// Quick returns the preset used by tests and benchmarks: every code path
// runs, in seconds, at reduced fidelity.
func Quick() Preset {
	return Preset{
		Name:      "quick",
		SignTrain: 150, SignTest: 40,
		DriveTrain: 160, DrivePerBucket: 10,
		DetEpochs: 16, RegEpochs: 12,
		AdvEpochs: 4, ContrastiveEpochs: 2,
		DiffusionSteps: 120, DiffPIRSteps: 8,
		APGDSteps: 12, SimBASteps: 150, RP2Iters: 20,
		Seed: 7,
	}
}

// Micro returns the smallest preset: every code path runs, in about a
// second, and certifies plumbing (shapes, labels, determinism), not
// experiment quality. The package tests, the goldens under testdata/
// (cmd/gengolden) and the example tests run it. It is not a spec preset
// name.
func Micro() Preset {
	return Preset{
		Name:      "micro",
		SignTrain: 40, SignTest: 12,
		DriveTrain: 50, DrivePerBucket: 3,
		DetEpochs: 4, RegEpochs: 4,
		AdvEpochs: 1, ContrastiveEpochs: 1,
		DiffusionSteps: 10, DiffPIRSteps: 3,
		APGDSteps: 4, SimBASteps: 20, RP2Iters: 4,
		Seed: 5,
	}
}

// Paper returns the preset used to produce the numbers in EXPERIMENTS.md.
// It is sized to regenerate all five tables and both figures in roughly
// half an hour on a commodity multicore machine; raising the sizes further
// tightens the estimates but does not change the shapes.
func Paper() Preset {
	return Preset{
		Name:      "paper",
		SignTrain: 300, SignTest: 80,
		DriveTrain: 400, DrivePerBucket: 20,
		DetEpochs: 22, RegEpochs: 18,
		AdvEpochs: 6, ContrastiveEpochs: 2,
		DiffusionSteps: 450, DiffPIRSteps: 12,
		APGDSteps: 25, SimBASteps: 300, RP2Iters: 40,
		Seed: 7,
	}
}

// AttackBudgets are the per-attack perturbation budgets. They are fixed
// across presets so Quick and Paper probe the same threat model; the paper
// does not publish its ε values, so these were chosen to reproduce the
// qualitative ordering of its tables (see EXPERIMENTS.md).
type AttackBudgets struct {
	// Detection task (full-image perturbations; RP2 sign-confined).
	DetGaussianSigma float64
	DetFGSMEps       float64
	DetAPGDEps       float64
	DetSimBAEps      float64

	// Regression task (perturbations confined to the lead-vehicle box).
	RegGaussianSigma float64
	RegFGSMEps       float64
	RegAPGDEps       float64
	RegCAPEps        float64
}

// DefaultBudgets returns the budgets used across all experiments.
func DefaultBudgets() AttackBudgets {
	return AttackBudgets{
		DetGaussianSigma: 0.27,
		DetFGSMEps:       0.004,
		DetAPGDEps:       0.0007,
		DetSimBAEps:      0.12,

		RegGaussianSigma: 0.06,
		RegFGSMEps:       0.02,
		RegAPGDEps:       0.03,
		RegCAPEps:        0.035,
	}
}
