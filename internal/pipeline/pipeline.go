// Package pipeline wires the perception stack into the closed control
// loop: rendered camera frame → (optional) runtime attacker → (optional)
// defense preprocessor → distance model → ACC controller → vehicle
// simulation. This is the reproduction's analogue of running OpenPilot
// with the Supercombo model in the loop, and it is where the safety
// consequence of a perception attack (a collision the paper's Table I
// errors imply) becomes measurable.
package pipeline

import (
	"math"

	"repro/internal/box"
	"repro/internal/defense"
	"repro/internal/imaging"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Attacker perturbs a frame at runtime given the current lead bounding box
// (the CAP threat model). A nil Attacker runs the clean pipeline.
type Attacker interface {
	Apply(img *imaging.Image, leadBox box.Box) *imaging.Image
}

// AttackerFunc adapts a closure to the Attacker interface.
type AttackerFunc func(img *imaging.Image, leadBox box.Box) *imaging.Image

// Apply implements Attacker.
func (f AttackerFunc) Apply(img *imaging.Image, leadBox box.Box) *imaging.Image {
	return f(img, leadBox)
}

// Config assembles one closed-loop scenario.
type Config struct {
	Reg      *regress.Regressor
	Attacker Attacker             // nil = no attack
	Defense  defense.Preprocessor // nil = no defense
	Drive    scene.DriveConfig

	Duration  float64 // seconds
	DT        float64 // control period (20 Hz in OpenPilot's planner)
	InitGap   float64 // meters
	EgoSpeed  float64 // m/s initial
	LeadSpeed float64 // m/s initial
	// LeadAccel gives the lead vehicle's acceleration over time, the
	// scenario script (e.g. a hard-brake event).
	LeadAccel func(t float64) float64
	// LeadLateral optionally scripts the lead vehicle's lateral offset
	// (meters off lane center) over time; nil keeps the renderer's frozen
	// offset. Cut-in scenarios use it to slide the lead into the ego
	// lane. Rendering-only: the simulation stays longitudinal, so safety
	// metrics treat the lead as in-lane regardless of the offset.
	LeadLateral func(t float64) float64

	// FrameFilter optionally post-processes each rendered frame in place
	// before the attacker and defense see it — the appearance layer for
	// weather veils (fog contrast wash, rain streaks). The rng is a
	// dedicated stream split from the run seed, so filters can draw
	// per-frame randomness without perturbing the renderer's stream.
	// Scenario registrations must construct a fresh filter per config
	// (inside Mutate) when the filter keeps scratch buffers: one Scenario
	// value is applied from many concurrently running matrix cells.
	FrameFilter func(img *imaging.Image, rng *xrand.RNG)

	Seed int64
}

// DefaultConfig returns a cruising scenario: both vehicles at 25 m/s with
// a 40 m gap, lead braking gently mid-run.
func DefaultConfig(reg *regress.Regressor) Config {
	return Config{
		Reg:      reg,
		Drive:    scene.DefaultDriveConfig(),
		Duration: 14, DT: 0.05,
		InitGap:  35,
		EgoSpeed: 27, LeadSpeed: 25,
		LeadAccel: func(t float64) float64 {
			if t > 4 && t < 7 {
				return -2.5 // lead brakes hard for three seconds
			}
			return 0
		},
		Seed: 77,
	}
}

// Run executes the closed loop and returns the trajectory and safety
// summary. Perceived relative speed is estimated by differentiating the
// (low-pass filtered) perceived gap, as a production ACC would from a
// vision-only distance.
func Run(cfg Config) sim.Result {
	rng := xrand.New(cfg.Seed)
	// The filter stream is split off before the renderer consumes rng, and
	// only when a filter is configured, so filter-free scenarios keep the
	// exact random streams (and therefore trajectories) they had before
	// FrameFilter existed.
	var filterRNG *xrand.RNG
	if cfg.FrameFilter != nil {
		filterRNG = rng.Split()
	}
	renderer := scene.NewRenderer(rng, cfg.Drive)
	acc := sim.ACC{Cfg: sim.DefaultACCConfig()}
	world := sim.NewSimulation(cfg.InitGap, cfg.EgoSpeed, cfg.LeadSpeed, cfg.DT)

	res := sim.Result{MinGap: math.Inf(1), MinTTC: math.Inf(1)}
	steps := int(cfg.Duration / cfg.DT)

	var prevPerceived float64
	var havePrev bool
	filtered := 0.0
	const filterAlpha = 0.5 // one-pole smoothing of the perceived gap

	// One reusable destination frame for defenses that support destination
	// passing, so the 20 Hz loop doesn't allocate a frame per step.
	var defBuf *imaging.Image

	for i := 0; i < steps; i++ {
		t := float64(i) * cfg.DT
		trueGap := world.State.Gap()
		if trueGap <= 0 {
			res.Collision = true
			break
		}

		// Perception.
		var frame scene.DriveScene
		if cfg.LeadLateral != nil {
			frame = renderer.RenderAt(trueGap, cfg.LeadLateral(t))
		} else {
			frame = renderer.Render(trueGap)
		}
		img := frame.Img
		if cfg.FrameFilter != nil {
			cfg.FrameFilter(img, filterRNG)
		}
		if cfg.Attacker != nil {
			img = cfg.Attacker.Apply(img, frame.LeadBox)
		}
		if cfg.Defense != nil {
			if _, ok := cfg.Defense.(defense.IntoPreprocessor); ok {
				defBuf = imaging.EnsureLike(defBuf, img)
			}
			img = defense.Apply(cfg.Defense, defBuf, img)
		}
		// A NaN prediction reads as a zero gap, like a negative one: past
		// this point it would turn the ego speed and the true gap into NaN,
		// and trueGap <= 0 would never detect a collision.
		perceived := cfg.Reg.Predict(img)
		if !(perceived >= 0) {
			perceived = 0
		}

		// Relative-speed estimate from the filtered perceived gap.
		if !havePrev {
			filtered = perceived
			prevPerceived = perceived
			havePrev = true
		}
		filtered = filterAlpha*perceived + (1-filterAlpha)*filtered
		relSpeed := (filtered - prevPerceived) / cfg.DT
		relSpeed = clamp(relSpeed, -15, 15)
		prevPerceived = filtered

		// Control + physics.
		egoAccel := acc.Accel(filtered, world.State.EgoSpeed, relSpeed)
		world.Step(egoAccel, cfg.LeadAccel(t))

		// Telemetry. The five series are sized for the whole run at the
		// first frame, so the loop never regrows them; a run that ends
		// before its first frame leaves them nil.
		if i == 0 {
			res.Times = make([]float64, 0, steps)
			res.TrueGaps = make([]float64, 0, steps)
			res.PerceivedGaps = make([]float64, 0, steps)
			res.EgoSpeeds = make([]float64, 0, steps)
			res.LeadSpeeds = make([]float64, 0, steps)
		}
		res.Times = append(res.Times, t)
		res.TrueGaps = append(res.TrueGaps, trueGap)
		res.PerceivedGaps = append(res.PerceivedGaps, perceived)
		res.EgoSpeeds = append(res.EgoSpeeds, world.State.EgoSpeed)
		res.LeadSpeeds = append(res.LeadSpeeds, world.State.LeadSpeed)
		if trueGap < res.MinGap {
			res.MinGap = trueGap
		}
		if ttc := world.State.TTC(); ttc < res.MinTTC {
			res.MinTTC = ttc
		}
	}
	if world.State.Gap() <= 0 {
		res.Collision = true
		res.MinGap = 0
	}
	return res
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
