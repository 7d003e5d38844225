package eval

import (
	"repro/internal/attack"
	"repro/internal/box"
	"repro/internal/defense"
	"repro/internal/detect"
	"repro/internal/imaging"
	"repro/internal/metrics"
)

// Ablations quantify the design choices DESIGN.md calls out. Each returns
// a small, self-describing result used by the ablation benchmarks.

// APGDvsPGD compares Auto-PGD's adaptive schedule against plain PGD at the
// same budget on the regression task, returning the mean induced error of
// each over the drive test set's near bucket.
func (e *Env) APGDvsPGD() (apgdErr, pgdErr float64) {
	obj := &attack.RegressionObjective{Reg: e.Reg}
	accA := metrics.NewRangeAccumulator(e.Ranges())
	accP := metrics.NewRangeAccumulator(e.Ranges())
	cfg := attack.DefaultAPGDConfig(e.Budgets.RegAPGDEps)
	// A tight step budget is where the adaptive schedule matters; at large
	// budgets both attacks saturate the ε-ball.
	cfg.Steps = 8
	for _, sc := range e.DriveTest.Scenes {
		mask := attack.BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
		clean := e.Reg.Predict(sc.Img)
		a := attack.AutoPGD(obj, sc.Img, cfg, mask)
		p := attack.PGD(obj, sc.Img, e.Budgets.RegAPGDEps, cfg.Steps, mask)
		accA.Add(sc.Distance, e.Reg.Predict(a)-clean)
		accP.Add(sc.Distance, e.Reg.Predict(p)-clean)
	}
	return accA.Means()[0], accP.Means()[0]
}

// CAPWarmVsCold compares CAP with patch inheritance against a cold-start
// variant (patch reset every frame) on an approach sequence, returning the
// mean induced error of each.
func (e *Env) CAPWarmVsCold() (warmErr, coldErr float64) {
	obj := &attack.RegressionObjective{Reg: e.Reg}

	run := func(cold bool) float64 {
		cfg := capConfig(e.Budgets)
		cfg.StepsPerFrame = 1 // a starved per-frame budget is where inheritance matters
		c := attack.NewCAP(cfg)
		var total float64
		n := 0
		for _, sc := range e.DriveTest.Scenes {
			if cold {
				c.Reset()
			}
			adv := c.Apply(obj, sc.Img, sc.LeadBox)
			total += e.Reg.Predict(adv) - e.Reg.Predict(sc.Img)
			n++
		}
		return total / float64(n)
	}
	return run(false), run(true)
}

// RP2EOTSweep measures detection mAP@50 after RP2 patches built with
// different expectation-over-transforms sample counts.
func (e *Env) RP2EOTSweep(samples []int) []float64 {
	out := make([]float64, len(samples))
	for si, s := range samples {
		imgs := make([]*imaging.Image, e.SignTestSet.Len())
		workers := makeDetWorkers(e)
		parallelMap(len(workers), e.SignTestSet.Len(), func(w, i int) {
			sc := e.SignTestSet.Scenes[i]
			if !sc.HasSign {
				imgs[i] = sc.Img.Clone()
				return
			}
			obj := &attack.DetectionObjective{Det: workers[w], GT: []box.Box{sc.Box}}
			cfg := attack.DefaultRP2Config()
			cfg.Iters = e.Preset.RP2Iters
			cfg.EOTSamples = s
			cfg.Seed = int64(1000*si + i)
			imgs[i] = attack.RP2(obj, sc.Img, sc.Box, cfg)
		})
		out[si] = detScoresFrom(e.Det, e, imgs, nil).MAP50
	}
	return out
}

// DiffPIRStepSweep measures post-restoration detection mAP@50 as a
// function of the number of reverse diffusion steps, on FGSM-attacked
// sign images.
func (e *Env) DiffPIRStepSweep(steps []int) []float64 {
	attacked := e.AttackSignSet(e.Det, e.SignTestSet, KindFGSM, e.Preset.Seed+800)
	out := make([]float64, len(steps))
	for si, s := range steps {
		cfg := defense.DefaultDiffPIRConfig()
		cfg.Steps = s
		prep := &defense.DiffPIRDefense{Model: e.Diffusion(), Cfg: cfg}
		out[si] = detScoresFrom(e.Det, e, attacked, blockDiffPIR(prep)).MAP50
	}
	return out
}

func makeDetWorkers(e *Env) []*detect.Detector {
	ws := make([]*detect.Detector, e.maxWorkers(e.SignTestSet.Len()))
	for i := range ws {
		ws[i] = e.Det.Clone()
	}
	return ws
}
