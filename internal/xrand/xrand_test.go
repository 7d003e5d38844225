package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children of the same parent state diverge from the parent and from
	// each other.
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same12, sameP1 := 0, 0
	ref := New(7)
	refChild := ref.Split()
	_ = refChild
	for i := 0; i < 50; i++ {
		v1, v2 := c1.Float64(), c2.Float64()
		if v1 == v2 {
			same12++
		}
		if v1 == parent.Float64() {
			sameP1++
		}
	}
	if same12 > 2 || sameP1 > 2 {
		t.Fatalf("split streams correlate: same12=%d sameP1=%d", same12, sameP1)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 20; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Split must be deterministic from the parent seed")
		}
	}
}

func TestUniformRange(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed)
		lo, hi := -3.0, 5.0
		for i := 0; i < 50; i++ {
			v := r.Uniform(lo, hi)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(3)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(2, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("mean %v, want ~2", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Fatalf("std %v, want ~3", std)
	}
}

func TestXavierBounds(t *testing.T) {
	r := New(13)
	dst := make([]float32, 1000)
	r.Xavier(dst, 100, 50)
	limit := math.Sqrt(6.0 / 150.0)
	for i, v := range dst {
		if float64(v) < -limit || float64(v) > limit {
			t.Fatalf("Xavier[%d]=%v outside ±%v", i, v, limit)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestFillHelpers(t *testing.T) {
	r := New(29)
	buf := make([]float32, 500)
	r.FillUniform(buf, 0.2, 0.4)
	for _, v := range buf {
		if v < 0.2 || v >= 0.4 {
			t.Fatalf("FillUniform out of range: %v", v)
		}
	}
	r.FillNormal(buf, 0, 1)
	var nonzero int
	for _, v := range buf {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 490 {
		t.Fatal("FillNormal left too many zeros")
	}
}
