package defense

import (
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imaging"
	"repro/internal/xrand"
)

// AttackFn perturbs one indexed image; the adversarial-training harness is
// agnostic to which attack produced the perturbation.
type AttackFn func(i int, img *imaging.Image) *imaging.Image

// AdvDriveSet materialises an adversarially perturbed copy of a driving
// set: frames are attacked, true distances are kept.
func AdvDriveSet(set *dataset.DriveSet, att AttackFn) ([]*imaging.Image, []float64) {
	imgs := make([]*imaging.Image, set.Len())
	dists := make([]float64, set.Len())
	for i, sc := range set.Scenes {
		imgs[i] = att(i, sc.Img)
		dists[i] = sc.Distance
	}
	return imgs, dists
}

// MixSets draws frac of each source set (images with matching labels),
// building the paper's "mixed" adversarial training set (25 % of the
// attacked examples from each of the four attacks).
func MixSets(rng *xrand.RNG, frac float64, imgSets [][]*imaging.Image, labelSets [][][]detect.Box) ([]*imaging.Image, [][]detect.Box) {
	var imgs []*imaging.Image
	var gts [][]detect.Box
	for s := range imgSets {
		n := len(imgSets[s])
		k := int(float64(n) * frac)
		perm := rng.Perm(n)
		for _, i := range perm[:k] {
			imgs = append(imgs, imgSets[s][i])
			gts = append(gts, labelSets[s][i])
		}
	}
	return imgs, gts
}

// MixDriveSets is MixSets for regression labels.
func MixDriveSets(rng *xrand.RNG, frac float64, imgSets [][]*imaging.Image, distSets [][]float64) ([]*imaging.Image, []float64) {
	var imgs []*imaging.Image
	var dists []float64
	for s := range imgSets {
		n := len(imgSets[s])
		k := int(float64(n) * frac)
		perm := rng.Perm(n)
		for _, i := range perm[:k] {
			imgs = append(imgs, imgSets[s][i])
			dists = append(dists, distSets[s][i])
		}
	}
	return imgs, dists
}
