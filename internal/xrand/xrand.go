// Package xrand provides deterministic, splittable random number helpers.
//
// Every stochastic component in this repository (scene generation, weight
// initialisation, attacks, data augmentation) receives an explicit *RNG so
// that experiments are reproducible from a single seed. Sub-streams derived
// with Split are statistically independent of the parent stream, which lets
// parallel workers draw randomness without locking or cross-talk.
package xrand

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source. It wraps math/rand with a few
// convenience samplers used throughout the library. RNG is not safe for
// concurrent use; Split off one RNG per goroutine instead.
type RNG struct {
	src *rand.Rand
}

// New returns an RNG seeded with the given seed.
func New(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Reseed resets the stream to the exact state of New(seed), reusing the
// receiver's storage — the allocation-free way for steady-state loops
// (DiffPIR restorations) to start a fresh deterministic stream per call.
func (r *RNG) Reseed(seed int64) { r.src.Seed(seed) }

// Split derives an independent child stream. The child's seed mixes the
// parent stream state with a large odd constant so sibling splits diverge.
func (r *RNG) Split() *RNG {
	return New(r.src.Int63() ^ 0x1e3779b97f4a7c15)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 { return r.src.Float32() }

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.src.NormFloat64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomises the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// FillNormal fills dst with N(mean, std) samples.
func (r *RNG) FillNormal(dst []float32, mean, std float64) {
	for i := range dst {
		dst[i] = float32(r.Normal(mean, std))
	}
}

// FillUniform fills dst with uniform samples in [lo, hi).
func (r *RNG) FillUniform(dst []float32, lo, hi float64) {
	for i := range dst {
		dst[i] = float32(r.Uniform(lo, hi))
	}
}

// Xavier fills dst with Glorot-uniform samples for a layer with the given
// fan-in and fan-out, the initialisation used by all conv/linear layers.
func (r *RNG) Xavier(dst []float32, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	r.FillUniform(dst, -limit, limit)
}
