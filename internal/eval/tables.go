package eval

import (
	"repro/internal/defense"
	"repro/internal/detect"
	"repro/internal/imaging"
	"repro/internal/metrics"
	"repro/internal/regress"
)

// RangeErrs are the four mean signed errors (meters) in the paper's
// distance buckets.
type RangeErrs [4]float64

// blockRange returns the index window of block bi when n items are split
// into blocks of size.
func blockRange(bi, size, n int) (lo, hi int) {
	lo = bi * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// blockPrep builds the defense one worker block applies. Each block gets
// its own instance, so a stateful defense (Randomization's RNG, DiffPIR's
// UNet scratch) is never shared between workers and its numbers never
// depend on how blocks are scheduled. A nil blockPrep runs undefended.
type blockPrep func(block int) defense.Preprocessor

// rangeErrsFrom evaluates attack-induced prediction shift per bucket:
// pred(processed attacked frame) − pred(clean frame), averaged per range.
// The set is split into BatchSize blocks that run on the worker pool, and
// each block's clean and attacked frames go through one batched forward —
// bit-identical to per-frame prediction, so table numbers are unchanged.
func rangeErrsFrom(reg *regress.Regressor, env *Env, attacked []*imaging.Image, prep blockPrep) RangeErrs {
	acc := metrics.NewRangeAccumulator(env.Ranges())
	n := env.DriveTest.Len()
	errs := make([]float64, n)
	blocks := (n + regress.BatchSize - 1) / regress.BatchSize
	workers := make([]*regress.Regressor, env.maxWorkers(blocks))
	for i := range workers {
		workers[i] = reg.Clone()
	}
	parallelMap(len(workers), blocks, func(w, bi int) {
		r := workers[w]
		var p defense.Preprocessor
		if prep != nil {
			p = prep(bi)
		}
		lo, hi := blockRange(bi, regress.BatchSize, n)
		clean := make([]*imaging.Image, hi-lo)
		adv := make([]*imaging.Image, hi-lo)
		for i := lo; i < hi; i++ {
			clean[i-lo] = env.DriveTest.Scenes[i].Img
			img := attacked[i]
			if p != nil {
				img = p.Process(img)
			}
			adv[i-lo] = img
		}
		advP := r.PredictBatch(adv)
		cleanP := r.PredictBatch(clean)
		for i := lo; i < hi; i++ {
			errs[i] = advP[i-lo] - cleanP[i-lo]
		}
	})
	for i, sc := range env.DriveTest.Scenes {
		acc.Add(sc.Distance, errs[i])
	}
	var out RangeErrs
	copy(out[:], acc.Means())
	return out
}

// detScoresFrom evaluates detection metrics on (optionally defended)
// attacked sign images against ground truth, batching each worker block
// through the detector's batched forward.
func detScoresFrom(det *detect.Detector, env *Env, attacked []*imaging.Image, prep blockPrep) metrics.DetectionScores {
	n := env.SignTestSet.Len()
	evals := make([]metrics.ImageEval, n)
	blocks := (n + detect.BatchSize - 1) / detect.BatchSize
	workers := make([]*detect.Detector, env.maxWorkers(blocks))
	for i := range workers {
		workers[i] = det.Clone()
	}
	parallelMap(len(workers), blocks, func(w, bi int) {
		d := workers[w]
		var p defense.Preprocessor
		if prep != nil {
			p = prep(bi)
		}
		lo, hi := blockRange(bi, detect.BatchSize, n)
		block := make([]*imaging.Image, hi-lo)
		for i := lo; i < hi; i++ {
			img := attacked[i]
			if p != nil {
				img = p.Process(img)
			}
			block[i-lo] = img
		}
		dets := d.DetectBatch(block, 0.05)
		for i := lo; i < hi; i++ {
			evals[i] = metrics.ImageEval{
				Dets: dets[i-lo],
				GT:   detect.GTBoxes(env.SignTestSet.Scenes[i]),
			}
		}
	})
	return metrics.EvalDetections(evals, 0.5)
}

// TableIRow is one attack's mean error per distance range.
type TableIRow struct {
	Attack Kind
	Errs   RangeErrs
}

// TableI reproduces "Avg. errors at different ranges (m) under attack".
type TableI struct {
	Rows []TableIRow
}

// RunTableI attacks the driving test set with each regression attack and
// measures the induced prediction error per range.
func (e *Env) RunTableI() TableI {
	var t TableI
	for _, kind := range RegressionKinds {
		e.logf("table I: attacking with %s", kind)
		attacked := e.AttackDriveSet(e.Reg, e.DriveTest, kind, e.Preset.Seed+100)
		t.Rows = append(t.Rows, TableIRow{
			Attack: kind,
			Errs:   rangeErrsFrom(e.Reg, e, attacked, nil),
		})
	}
	return t
}

// Fig2Row is one attack's detection scores.
type Fig2Row struct {
	Attack Kind
	Scores metrics.DetectionScores
}

// Fig2 reproduces "Performance of stop sign detection with or w/o attacks".
type Fig2 struct {
	Rows []Fig2Row
}

// RunFig2 attacks the sign test set with each detection attack and
// measures mAP@50 / precision / recall.
func (e *Env) RunFig2() Fig2 {
	var f Fig2
	for _, kind := range DetectionKinds {
		e.logf("fig 2: attacking with %s", kind)
		attacked := e.AttackSignSet(e.Det, e.SignTestSet, kind, e.Preset.Seed+200)
		f.Rows = append(f.Rows, Fig2Row{
			Attack: kind,
			Scores: detScoresFrom(e.Det, e, attacked, nil),
		})
	}
	return f
}

// TableIIRow is one (attack, defense) cell group: regression range errors
// plus detection scores after the preprocessing defense.
type TableIIRow struct {
	Attack  Kind // regression attack; detection uses pairedDetKind(Attack)
	Defense string
	Errs    RangeErrs
	Scores  metrics.DetectionScores
}

// TableII reproduces "Performance after image processing".
type TableII struct {
	Rows []TableIIRow
}

// pairedDetKind maps a regression attack to the detection attack sharing
// its table row: the paper reports "CAP/RP2" as one row, with CAP on the
// regression task and RP2 on the detection task.
func pairedDetKind(k Kind) Kind {
	if k == KindCAP {
		return KindRP2
	}
	return k
}

// prepColumn is one Table II defense column: its name and the per-block
// defense (nil for the undefended column).
type prepColumn struct {
	name string
	prep blockPrep
}

// preprocessors returns the Table II defense columns in paper order.
// Randomization draws from an RNG, so every block gets its own instance
// seeded from the column seed and the block index.
func (e *Env) preprocessors() []prepColumn {
	median, bitDepth := defense.NewMedianBlur(), defense.NewBitDepth()
	seed := e.Preset.Seed + 5
	return []prepColumn{
		{name: defense.None{}.Name()},
		{median.Name(), func(int) defense.Preprocessor { return median }},
		{"Randomization", func(bi int) defense.Preprocessor { return defense.NewRandomization(seed + int64(bi)) }},
		{bitDepth.Name(), func(int) defense.Preprocessor { return bitDepth }},
	}
}

// RunTableII applies each preprocessing defense to each attack's outputs
// on both tasks.
func (e *Env) RunTableII() TableII {
	var t TableII
	for _, kind := range RegressionKinds {
		e.logf("table II: attacking with %s", kind)
		attackedDrive := e.AttackDriveSet(e.Reg, e.DriveTest, kind, e.Preset.Seed+300)
		attackedSign := e.AttackSignSet(e.Det, e.SignTestSet, pairedDetKind(kind), e.Preset.Seed+301)
		for _, col := range e.preprocessors() {
			t.Rows = append(t.Rows, TableIIRow{
				Attack:  kind,
				Defense: col.name,
				Errs:    rangeErrsFrom(e.Reg, e, attackedDrive, col.prep),
				Scores:  detScoresFrom(e.Det, e, attackedSign, col.prep),
			})
		}
	}
	return t
}
