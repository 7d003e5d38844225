package box

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewNormalises(t *testing.T) {
	b := New(5, 8, 1, 2)
	if b.X0 != 1 || b.X1 != 5 || b.Y0 != 2 || b.Y1 != 8 {
		t.Fatalf("New did not normalise: %+v", b)
	}
}

func TestFromCenterRoundTrip(t *testing.T) {
	b := FromCenter(10, 20, 4, 6)
	if b.CX() != 10 || b.CY() != 20 || b.W() != 4 || b.H() != 6 {
		t.Fatalf("FromCenter round trip failed: %+v", b)
	}
}

func TestAreaAndEmpty(t *testing.T) {
	tests := []struct {
		name  string
		b     Box
		area  float64
		empty bool
	}{
		{"unit", New(0, 0, 1, 1), 1, false},
		{"rect", New(1, 1, 4, 3), 6, false},
		{"line", Box{X0: 0, Y0: 0, X1: 5, Y1: 0}, 0, true},
		{"point", Box{}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.b.Area(); got != tt.area {
				t.Fatalf("Area = %v, want %v", got, tt.area)
			}
			if got := tt.b.Empty(); got != tt.empty {
				t.Fatalf("Empty = %v, want %v", got, tt.empty)
			}
		})
	}
}

func TestIoUKnownValues(t *testing.T) {
	tests := []struct {
		name string
		a, b Box
		want float64
	}{
		{"identical", New(0, 0, 2, 2), New(0, 0, 2, 2), 1},
		{"disjoint", New(0, 0, 1, 1), New(2, 2, 3, 3), 0},
		{"touching", New(0, 0, 1, 1), New(1, 0, 2, 1), 0},
		{"half overlap", New(0, 0, 2, 1), New(1, 0, 3, 1), 1.0 / 3.0},
		{"nested quarter", New(0, 0, 2, 2), New(0, 0, 1, 1), 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.IoU(tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("IoU = %v, want %v", got, tt.want)
			}
		})
	}
}

func randBox(r *xrand.RNG) Box {
	return New(r.Uniform(0, 50), r.Uniform(0, 50), r.Uniform(0, 50), r.Uniform(0, 50))
}

// Property: IoU is symmetric and bounded in [0,1]; IoU(b,b)=1 for
// non-empty boxes.
func TestIoUProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := xrand.New(seed)
		a, b := randBox(r), randBox(r)
		ab, ba := a.IoU(b), b.IoU(a)
		if math.Abs(ab-ba) > 1e-12 || ab < 0 || ab > 1 {
			return false
		}
		if !a.Empty() && math.Abs(a.IoU(a)-1) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: intersection area never exceeds either operand's area.
func TestIntersectBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := xrand.New(seed)
		a, b := randBox(r), randBox(r)
		inter := a.Intersect(b).Area()
		return inter <= a.Area()+1e-9 && inter <= b.Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClip(t *testing.T) {
	b := New(-5, -5, 100, 100).Clip(64, 48)
	if b.X0 != 0 || b.Y0 != 0 || b.X1 != 64 || b.Y1 != 48 {
		t.Fatalf("Clip = %+v", b)
	}
}

func TestExpandAndScale(t *testing.T) {
	b := New(2, 2, 4, 4)
	e := b.Expand(1)
	if e.X0 != 1 || e.Y1 != 5 {
		t.Fatalf("Expand = %+v", e)
	}
}
