package metrics

import (
	"math"
	"testing"

	"repro/internal/box"
)

func det(x0, y0, x1, y1, score float64) Detection {
	return Detection{Box: box.New(x0, y0, x1, y1), Score: score}
}

func TestPrecisionRecallPerfect(t *testing.T) {
	evals := []ImageEval{{
		Dets: []Detection{det(0, 0, 10, 10, 0.9)},
		GT:   []box.Box{box.New(0, 0, 10, 10)},
	}}
	p, r := PrecisionRecall(evals, 0.5, 0.5)
	if p != 1 || r != 1 {
		t.Fatalf("P=%v R=%v, want 1,1", p, r)
	}
}

func TestPrecisionRecallFalsePositive(t *testing.T) {
	evals := []ImageEval{{
		Dets: []Detection{
			det(0, 0, 10, 10, 0.9),
			det(30, 30, 40, 40, 0.8), // no matching GT
		},
		GT: []box.Box{box.New(0, 0, 10, 10)},
	}}
	p, r := PrecisionRecall(evals, 0.5, 0.5)
	if p != 0.5 || r != 1 {
		t.Fatalf("P=%v R=%v, want 0.5,1", p, r)
	}
}

func TestPrecisionRecallMiss(t *testing.T) {
	evals := []ImageEval{{
		Dets: nil,
		GT:   []box.Box{box.New(0, 0, 10, 10)},
	}}
	p, r := PrecisionRecall(evals, 0.5, 0.5)
	if p != 1 || r != 0 {
		t.Fatalf("P=%v R=%v, want vacuous 1, 0", p, r)
	}
}

func TestPrecisionRecallScoreThreshold(t *testing.T) {
	evals := []ImageEval{{
		Dets: []Detection{det(0, 0, 10, 10, 0.3)}, // below threshold
		GT:   []box.Box{box.New(0, 0, 10, 10)},
	}}
	_, r := PrecisionRecall(evals, 0.5, 0.5)
	if r != 0 {
		t.Fatalf("low-score detection must not count, recall=%v", r)
	}
}

func TestGreedyMatchingPrefersHighScore(t *testing.T) {
	// Two detections overlap the single GT; only the higher-scoring one
	// may match, the other is a false positive.
	evals := []ImageEval{{
		Dets: []Detection{
			det(0, 0, 10, 10, 0.7),
			det(1, 1, 11, 11, 0.9),
		},
		GT: []box.Box{box.New(0, 0, 10, 10)},
	}}
	p, r := PrecisionRecall(evals, 0.5, 0.5)
	if p != 0.5 || r != 1 {
		t.Fatalf("P=%v R=%v, want 0.5,1", p, r)
	}
}

func TestAveragePrecisionPerfect(t *testing.T) {
	evals := []ImageEval{
		{Dets: []Detection{det(0, 0, 10, 10, 0.9)}, GT: []box.Box{box.New(0, 0, 10, 10)}},
		{Dets: []Detection{det(5, 5, 15, 15, 0.8)}, GT: []box.Box{box.New(5, 5, 15, 15)}},
	}
	if ap := AveragePrecision(evals, 0.5); math.Abs(ap-1) > 1e-12 {
		t.Fatalf("AP = %v, want 1", ap)
	}
}

func TestAveragePrecisionHalf(t *testing.T) {
	// One TP at high score, one GT never found: AP = 0.5.
	evals := []ImageEval{
		{Dets: []Detection{det(0, 0, 10, 10, 0.9)}, GT: []box.Box{box.New(0, 0, 10, 10)}},
		{Dets: nil, GT: []box.Box{box.New(5, 5, 15, 15)}},
	}
	if ap := AveragePrecision(evals, 0.5); math.Abs(ap-0.5) > 1e-12 {
		t.Fatalf("AP = %v, want 0.5", ap)
	}
}

func TestAveragePrecisionFPBelowTP(t *testing.T) {
	// TP at score .9 then FP at .5: precision stays 1 up to recall 1,
	// so AP = 1 despite the trailing false positive.
	evals := []ImageEval{{
		Dets: []Detection{det(0, 0, 10, 10, 0.9), det(30, 30, 40, 40, 0.5)},
		GT:   []box.Box{box.New(0, 0, 10, 10)},
	}}
	if ap := AveragePrecision(evals, 0.5); math.Abs(ap-1) > 1e-12 {
		t.Fatalf("AP = %v, want 1", ap)
	}
}

func TestAveragePrecisionFPAboveTP(t *testing.T) {
	// FP outranks the TP: at recall 1 precision is 0.5, AP = 0.5.
	evals := []ImageEval{{
		Dets: []Detection{det(30, 30, 40, 40, 0.95), det(0, 0, 10, 10, 0.9)},
		GT:   []box.Box{box.New(0, 0, 10, 10)},
	}}
	if ap := AveragePrecision(evals, 0.5); math.Abs(ap-0.5) > 1e-12 {
		t.Fatalf("AP = %v, want 0.5", ap)
	}
}

func TestAveragePrecisionNoGT(t *testing.T) {
	evals := []ImageEval{{Dets: []Detection{det(0, 0, 1, 1, 0.9)}}}
	if ap := AveragePrecision(evals, 0.5); ap != 0 {
		t.Fatalf("AP with no GT = %v, want 0", ap)
	}
}

func TestEvalDetectionsBundles(t *testing.T) {
	evals := []ImageEval{{
		Dets: []Detection{det(0, 0, 10, 10, 0.9)},
		GT:   []box.Box{box.New(0, 0, 10, 10)},
	}}
	s := EvalDetections(evals, 0.5)
	if s.MAP50 != 1 || s.Precision != 1 || s.Recall != 1 {
		t.Fatalf("scores = %+v", s)
	}
}

func TestRangeAccumulator(t *testing.T) {
	acc := NewRangeAccumulator(PaperRanges)
	acc.Add(10, 2)
	acc.Add(15, 4)
	acc.Add(25, -1)
	acc.Add(70, 10)
	acc.Add(95, 100) // outside all buckets: dropped
	means := acc.Means()
	if means[0] != 3 {
		t.Fatalf("bucket0 mean = %v, want 3", means[0])
	}
	if means[1] != -1 {
		t.Fatalf("bucket1 mean = %v, want -1", means[1])
	}
	if means[2] != 0 {
		t.Fatalf("empty bucket mean = %v, want 0", means[2])
	}
	if means[3] != 10 {
		t.Fatalf("bucket3 mean = %v, want 10", means[3])
	}
	counts := acc.counts
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 0 || counts[3] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestRangeAccumulatorBoundaries(t *testing.T) {
	acc := NewRangeAccumulator(PaperRanges)
	acc.Add(20, 1) // falls in [20,40), not [0,20)
	if acc.counts[0] != 0 || acc.counts[1] != 1 {
		t.Fatalf("boundary sample misrouted: %v", acc.counts)
	}
}
