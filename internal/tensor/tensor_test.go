package tensor

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randTensor(rng *xrand.RNG, shape ...int) *Tensor {
	t := New(shape...)
	rng.FillNormal(t.Data(), 0, 1)
	return t
}

func TestNewShapeAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"vector", []int{7}, 7},
		{"matrix", []int{3, 4}, 12},
		{"chw", []int{3, 8, 8}, 192},
		{"rank4", []int{2, 3, 4, 5}, 120},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if got := x.Len(); got != tt.want {
				t.Fatalf("Len() = %d, want %d", got, tt.want)
			}
			if got := x.Rank(); got != len(tt.shape) {
				t.Fatalf("Rank() = %d, want %d", got, len(tt.shape))
			}
			for i, d := range x.Shape() {
				if d != tt.shape[i] {
					t.Fatalf("Shape()[%d] = %d, want %d", i, d, tt.shape[i])
				}
			}
		})
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(3, 0) should panic")
		}
	}()
	New(3, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	// Row-major layout: offset of (1,2,3) = (1*3+2)*4+3 = 23.
	if got := x.Data()[23]; got != 42 {
		t.Fatalf("flat[23] = %v, want 42", got)
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At should panic")
		}
	}()
	x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(4)
	x.Fill(1)
	c := x.Clone()
	c.Data()[0] = 9
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := New(2, 6)
	v := x.Reshape(3, 4)
	v.Data()[0] = 5
	if x.Data()[0] != 5 {
		t.Fatal("Reshape must view the same storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape should panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := a.Clone().AddInPlace(b).Data(); got[0] != 5 || got[2] != 9 {
		t.Fatalf("AddInPlace = %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Mul(b).Data(); got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
	if got := a.Scale(2).Data(); got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	c := a.Clone()
	c.AddScaledInPlace(b, -1)
	if c.Data()[0] != -3 {
		t.Fatalf("AddScaled = %v", c.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(3)
	b := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("AddInPlace with mismatched shapes should panic")
		}
	}()
	a.AddInPlace(b)
}

func TestClampSignNorms(t *testing.T) {
	x := FromSlice([]float32{-3, -0.5, 0, 0.5, 3}, 5)
	s := x.Clone().SignInPlace()
	wantS := []float32{-1, -1, 0, 1, 1}
	for i, v := range s.Data() {
		if v != wantS[i] {
			t.Fatalf("Sign[%d] = %v, want %v", i, v, wantS[i])
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3, 0}, 4)
	if got := x.Sum(); !almostEq(got, 2, 1e-9) {
		t.Fatalf("Sum = %v", got)
	}
	if got := x.Mean(); !almostEq(got, 0.5, 1e-9) {
		t.Fatalf("Mean = %v", got)
	}
}

// matMul returns A·B computed by the package GEMM into a fresh tensor.
func matMul(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(1))
	MatMulKMajorInto(c, a, b)
	return c
}

// transpose returns the transpose of a 2-D tensor as a fresh tensor.
func transpose(t *Tensor) *Tensor {
	out := New(t.Dim(1), t.Dim(0))
	Transpose2DInto(out, t)
	return out
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMulKMajorInto[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := xrand.New(1)
	// Past parallelMinWork, so the product is row-sharded.
	a := randTensor(rng, 256, 33)
	b := randTensor(rng, 33, 17)
	c := matMul(a, b)
	// Serial float64 reference.
	ref := New(256, 17)
	for i := 0; i < 256; i++ {
		for j := 0; j < 17; j++ {
			var s float64
			for k := 0; k < 33; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			ref.Set(float32(s), i, j)
		}
	}
	for i := range c.Data() {
		if !almostEq(float64(c.Data()[i]), float64(ref.Data()[i]), 1e-3) {
			t.Fatalf("parallel GEMM diverges at %d: %v vs %v", i, c.Data()[i], ref.Data()[i])
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := New(3, 2)
	at.Fill(99) // every element must be overwritten
	Transpose2DInto(at, a)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatalf("transpose[%d,%d] = %v, want %v", j, i, at.At(j, i), a.At(i, j))
			}
		}
	}
}

// Property: matmul distributes over addition — A(B+C) == AB + AC.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := xrand.New(7)
	f := func(seed int64) bool {
		r := xrand.New(seed ^ rng.Int63())
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		c := randTensor(r, k, n)
		left := matMul(a, b.Clone().AddInPlace(c))
		right := matMul(a, b).AddInPlace(matMul(a, c))
		for i := range left.Data() {
			if !almostEq(float64(left.Data()[i]), float64(right.Data()[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution and (AB)ᵀ == BᵀAᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := xrand.New(seed)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		lhs := transpose(matMul(a, b))
		rhs := matMul(transpose(b), transpose(a))
		for i := range lhs.Data() {
			if !almostEq(float64(lhs.Data()[i]), float64(rhs.Data()[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// dot returns the inner product of a and b viewed as flat vectors, in
// float64.
func dot(a, b *Tensor) float64 {
	if a.Len() != b.Len() {
		panic("dot: length mismatch")
	}
	var s float64
	for i, v := range a.Data() {
		s += float64(float64(v) * float64(b.Data()[i])) // rounded product: no FMA on arm64
	}
	return s
}

// The TestIm2Col… known-value and adjoint tests below exercise the
// tap-major lowering the conv forward reads in place from its padded copy
// (materialised by im2col through IndirectConvInto and tapCols) and the
// MatMulCol2ImInto fold, its adjoint; they keep the textbook name of the
// transform.

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding lowers to the input
	// itself, so a unit filter reproduces the input.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, K: 1, Stride: 1, Pad: 0}
	cols := im2col(x, g)
	out := New(1, 2, 2)
	out.Fill(99)
	IndirectConvInto(out, New(NewConvTaps(g).PaddedLen()), x, FromSlice([]float32{1}, 1, 1), New(1), NewConvTaps(g))
	for i, v := range out.Data() {
		if v != x.Data()[i] || cols.Data()[i] != x.Data()[i] {
			t.Fatalf("identity im2col mismatch at %d", i)
		}
	}
}

func TestIm2ColKnownWindow(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1: output is 2x2 = 4 positions, and
	// the lowering has one row per tap and one column per position.
	x := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, K: 2, Stride: 1, Pad: 0}
	cols := im2col(x, g)
	if cols.Dim(0) != 4 || cols.Dim(1) != 4 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// Column 0 holds the top-left window: 1,2,4,5.
	want := []float32{1, 2, 4, 5}
	for tap, v := range want {
		if got := cols.At(tap, 0); got != v {
			t.Fatalf("cols[%d][0] = %v, want %v", tap, got, v)
		}
	}
	// The last column holds the bottom-right window: 5,6,8,9.
	wantLast := []float32{5, 6, 8, 9}
	for tap, v := range wantLast {
		if got := cols.At(tap, 3); got != v {
			t.Fatalf("cols[%d][3] = %v, want %v", tap, got, v)
		}
	}
	// Row 0 (tap (0,0)) holds what that tap reads at every position.
	for p, v := range []float32{1, 2, 4, 5} {
		if got := cols.At(0, p); got != v {
			t.Fatalf("cols[0][%d] = %v, want %v", p, got, v)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, K: 3, Stride: 1, Pad: 1}
	if g.OutH() != 2 || g.OutW() != 2 {
		t.Fatalf("geom out %dx%d", g.OutH(), g.OutW())
	}
	cols := im2col(x, g)
	// Top-left kernel tap of the first window reads padding => 0.
	if cols.At(0, 0) != 0 {
		t.Fatalf("padded tap should be 0, got %v", cols.At(0, 0))
	}
	// Center tap (ky=1,kx=1 => row 4) of the first window is x[0,0]=1.
	if cols.At(4, 0) != 1 {
		t.Fatalf("center tap = %v, want 1", cols.At(4, 0))
	}
}

// Property: the MatMulCol2ImInto fold is the exact adjoint of the forward's
// tap-major lowering: <Im2Col(x), y> == <x, Col2Im(y)> for all x, y.
func TestIm2ColAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := xrand.New(seed)
		g := ConvGeom{
			InC: 1 + r.Intn(3), InH: 4 + r.Intn(5), InW: 4 + r.Intn(5),
			K: 1 + r.Intn(3), Stride: 1 + r.Intn(3), Pad: r.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate geometry
		}
		x := randTensor(r, g.InC, g.InH, g.InW)
		cols := im2col(x, g)
		y := randTensor(r, cols.Dim(0), cols.Dim(1))
		back := New(g.InC, g.InH, g.InW)
		col2im(back, y, g)
		lhs := dot(cols, y)
		rhs := dot(x, back)
		return almostEq(lhs, rhs, 1e-2*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeomValidate(t *testing.T) {
	tests := []struct {
		name    string
		g       ConvGeom
		wantErr bool
	}{
		{"ok", ConvGeom{InC: 3, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1}, false},
		{"zero channel", ConvGeom{InC: 0, InH: 8, InW: 8, K: 3, Stride: 1}, true},
		{"kernel too big", ConvGeom{InC: 1, InH: 2, InW: 2, K: 5, Stride: 1}, true},
		{"zero stride", ConvGeom{InC: 1, InH: 8, InW: 8, K: 3, Stride: 0}, true},
		{"negative pad", ConvGeom{InC: 1, InH: 8, InW: 8, K: 3, Stride: 1, Pad: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.g.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

// TestSignInPlaceMatchesSwitch pins the branch-free SignInPlace to the
// compare-and-branch definition it replaced, bit for bit, over the IEEE
// edge cases: NaN of either sign → +0, ±0 → +0, ±Inf → ±1, and subnormal,
// tiny, unit and ±MaxFloat32 values keep their sign.
func TestSignInPlaceMatchesSwitch(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | 1<<31)
	in := []float32{
		nan, negNaN, math.Float32frombits(0x7f800001), math.Float32frombits(0xffffffff),
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
		math.Float32frombits(0x00800000), math.Float32frombits(0x80800000), // smallest normals
		1, -1, 0.5, -2.5,
		math.MaxFloat32, -math.MaxFloat32,
	}
	want := make([]float32, len(in))
	for i, v := range in {
		switch {
		case v > 0:
			want[i] = 1
		case v < 0:
			want[i] = -1
		default:
			want[i] = 0
		}
	}
	got := FromSlice(append([]float32(nil), in...), len(in)).SignInPlace().Data()
	for i := range in {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("Sign(%v = %#x) = %v (%#x), want %v (%#x)", in[i], math.Float32bits(in[i]),
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}
