// Package dataset assembles the synthetic scene generators into train/test
// datasets with deterministic splits and shuffling, mirroring how the paper
// pairs the Traffic Signs Detection dataset with comma2k19 driving video.
package dataset

import (
	"repro/internal/imaging"
	"repro/internal/scene"
	"repro/internal/xrand"
)

// SignSet is a collection of stop-sign scenes.
type SignSet struct {
	Scenes []scene.SignScene
}

// GenerateSignSet renders n independent stop-sign scenes.
func GenerateSignSet(rng *xrand.RNG, cfg scene.SignConfig, n int) *SignSet {
	out := &SignSet{Scenes: make([]scene.SignScene, n)}
	for i := range out.Scenes {
		out.Scenes[i] = scene.GenerateSign(rng, cfg)
	}
	return out
}

// Split partitions the set into train and test with the given train
// fraction; the order is preserved (scenes are i.i.d. by construction).
func (s *SignSet) Split(trainFrac float64) (train, test *SignSet) {
	k := int(float64(len(s.Scenes)) * trainFrac)
	if k < 0 {
		k = 0
	}
	if k > len(s.Scenes) {
		k = len(s.Scenes)
	}
	return &SignSet{Scenes: s.Scenes[:k]}, &SignSet{Scenes: s.Scenes[k:]}
}

// Len returns the number of scenes.
func (s *SignSet) Len() int { return len(s.Scenes) }

// WithImages returns a new set that keeps every scene's labels but swaps
// in the given images (one per scene, e.g. adversarially perturbed copies).
func (s *SignSet) WithImages(imgs []*imaging.Image) *SignSet {
	if len(imgs) != len(s.Scenes) {
		panic("dataset: WithImages length mismatch")
	}
	out := &SignSet{Scenes: make([]scene.SignScene, len(s.Scenes))}
	for i, sc := range s.Scenes {
		sc.Img = imgs[i]
		out.Scenes[i] = sc
	}
	return out
}

// DriveSet is a collection of driving frames.
type DriveSet struct {
	Scenes []scene.DriveScene
}

// GenerateDriveSet renders n driving frames with distances sampled
// uniformly from [minZ, maxZ].
func GenerateDriveSet(rng *xrand.RNG, cfg scene.DriveConfig, n int, minZ, maxZ float64) *DriveSet {
	out := &DriveSet{Scenes: make([]scene.DriveScene, n)}
	for i := range out.Scenes {
		z := rng.Uniform(minZ, maxZ)
		out.Scenes[i] = scene.GenerateDrive(rng, cfg, z)
	}
	return out
}

// GenerateDriveSetStratified renders frames spread evenly across the given
// distance buckets (the paper's [0,20], [20,40], [40,60], [60,80] ranges),
// nPerBucket frames each, so every range has equal support in evaluation.
func GenerateDriveSetStratified(rng *xrand.RNG, cfg scene.DriveConfig, nPerBucket int, buckets [][2]float64) *DriveSet {
	out := &DriveSet{}
	for _, b := range buckets {
		for i := 0; i < nPerBucket; i++ {
			z := rng.Uniform(b[0], b[1])
			out.Scenes = append(out.Scenes, scene.GenerateDrive(rng, cfg, z))
		}
	}
	return out
}

// Split partitions the set into train and test with the given train fraction.
func (s *DriveSet) Split(trainFrac float64) (train, test *DriveSet) {
	k := int(float64(len(s.Scenes)) * trainFrac)
	if k < 0 {
		k = 0
	}
	if k > len(s.Scenes) {
		k = len(s.Scenes)
	}
	return &DriveSet{Scenes: s.Scenes[:k]}, &DriveSet{Scenes: s.Scenes[k:]}
}

// Len returns the number of scenes.
func (s *DriveSet) Len() int { return len(s.Scenes) }
