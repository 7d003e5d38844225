// Package metrics implements the evaluation measures reported in the
// paper: mAP@50 / precision / recall for stop-sign detection, and mean
// prediction error bucketed by distance range for the regression task.
package metrics

import (
	"sort"

	"repro/internal/box"
)

// Detection is one scored box produced by a detector.
type Detection struct {
	Box   box.Box
	Score float64
}

// ImageEval pairs the detections on one image with its ground-truth boxes.
type ImageEval struct {
	Dets []Detection
	GT   []box.Box
}

// PrecisionRecall computes precision and recall over a set of images at a
// fixed IoU threshold and confidence threshold, using greedy score-ordered
// matching (each ground-truth box may match at most one detection).
func PrecisionRecall(evals []ImageEval, iouThresh, scoreThresh float64) (precision, recall float64) {
	var tp, fp, fn int
	for _, ev := range evals {
		dets := make([]Detection, 0, len(ev.Dets))
		for _, d := range ev.Dets {
			if d.Score >= scoreThresh {
				dets = append(dets, d)
			}
		}
		sort.Slice(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
		matched := make([]bool, len(ev.GT))
		for _, d := range dets {
			best := -1
			bestIoU := iouThresh
			for gi, g := range ev.GT {
				if matched[gi] {
					continue
				}
				if iou := d.Box.IoU(g); iou >= bestIoU {
					best, bestIoU = gi, iou
				}
			}
			if best >= 0 {
				matched[best] = true
				tp++
			} else {
				fp++
			}
		}
		for _, m := range matched {
			if !m {
				fn++
			}
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	} else {
		precision = 1 // no detections: vacuous precision, matching common tooling
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// AveragePrecision computes AP at the given IoU threshold by sweeping the
// confidence threshold over all detections (all-point interpolation, the
// COCO-style area under the precision-recall curve). With a single class
// this equals the paper's mAP@50 when iouThresh = 0.5.
func AveragePrecision(evals []ImageEval, iouThresh float64) float64 {
	type flatDet struct {
		score float64
		img   int
		idx   int
	}
	var all []flatDet
	totalGT := 0
	for i, ev := range evals {
		totalGT += len(ev.GT)
		for j, d := range ev.Dets {
			all = append(all, flatDet{score: d.Score, img: i, idx: j})
		}
	}
	if totalGT == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })

	matched := make([][]bool, len(evals))
	for i, ev := range evals {
		matched[i] = make([]bool, len(ev.GT))
	}

	var tp, fp int
	recalls := make([]float64, 0, len(all))
	precisions := make([]float64, 0, len(all))
	for _, fd := range all {
		ev := evals[fd.img]
		d := ev.Dets[fd.idx]
		best := -1
		bestIoU := iouThresh
		for gi, g := range ev.GT {
			if matched[fd.img][gi] {
				continue
			}
			if iou := d.Box.IoU(g); iou >= bestIoU {
				best, bestIoU = gi, iou
			}
		}
		if best >= 0 {
			matched[fd.img][best] = true
			tp++
		} else {
			fp++
		}
		recalls = append(recalls, float64(tp)/float64(totalGT))
		precisions = append(precisions, float64(tp)/float64(tp+fp))
	}

	// Make precision monotone non-increasing from the right, then integrate.
	for i := len(precisions) - 2; i >= 0; i-- {
		if precisions[i] < precisions[i+1] {
			precisions[i] = precisions[i+1]
		}
	}
	ap := 0.0
	prevR := 0.0
	for i := range recalls {
		ap += (recalls[i] - prevR) * precisions[i]
		prevR = recalls[i]
	}
	return ap
}

// DetectionScores bundles the three detection metrics the paper reports.
type DetectionScores struct {
	MAP50     float64
	Precision float64
	Recall    float64
}

// EvalDetections computes mAP@50 plus precision/recall at the given
// confidence threshold.
func EvalDetections(evals []ImageEval, scoreThresh float64) DetectionScores {
	p, r := PrecisionRecall(evals, 0.5, scoreThresh)
	return DetectionScores{
		MAP50:     AveragePrecision(evals, 0.5),
		Precision: p,
		Recall:    r,
	}
}

// PaperRanges are the distance buckets of Tables I, II, III and V.
var PaperRanges = [][2]float64{{0, 20}, {20, 40}, {40, 60}, {60, 80}}

// RangeAccumulator averages a signed error per distance bucket.
type RangeAccumulator struct {
	Buckets [][2]float64
	sums    []float64
	counts  []int
}

// NewRangeAccumulator returns an accumulator over the given buckets.
func NewRangeAccumulator(buckets [][2]float64) *RangeAccumulator {
	return &RangeAccumulator{
		Buckets: buckets,
		sums:    make([]float64, len(buckets)),
		counts:  make([]int, len(buckets)),
	}
}

// Add records a signed error observed at the given true distance. Samples
// outside every bucket are dropped.
func (r *RangeAccumulator) Add(trueDist, err float64) {
	for i, b := range r.Buckets {
		if trueDist >= b[0] && trueDist < b[1] {
			r.sums[i] += err
			r.counts[i]++
			return
		}
	}
}

// Means returns the mean signed error per bucket (0 for empty buckets).
func (r *RangeAccumulator) Means() []float64 {
	out := make([]float64, len(r.Buckets))
	for i := range out {
		if r.counts[i] > 0 {
			out[i] = r.sums[i] / float64(r.counts[i])
		}
	}
	return out
}
