package tensor

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// elemKernels pairs each elementwise kernel's dispatching form with its
// scalar loop, over one operand layout: d (also the in-place operand of
// axpy, scale and addRows), x, y and the scalar s. The row kernels run two
// rows (halves): split deals each row of x out into its even and odd
// columns, stored one after the other in d's row, and merge deals them
// back; addRows adds two rows of x, packed, into two rows of d one float
// apart when the length is odd, so the strides differ.
var elemKernels = []struct {
	name      string
	run, loop func(d, x, y []float32, s float32)
}{
	{"leakyReLU",
		func(d, x, _ []float32, s float32) { leakyReLU(d, x, s) },
		func(d, x, _ []float32, s float32) { leakyReLUGo(d, x, s) }},
	{"leakyReLUGrad",
		func(d, x, y []float32, s float32) { leakyReLUGrad(d, x, y, s) },
		func(d, x, y []float32, s float32) { leakyReLUGradGo(d, x, y, s) }},
	{"addConst",
		func(d, x, _ []float32, s float32) { addConst(d, x, s) },
		func(d, x, _ []float32, s float32) { addConstGo(d, x, s) }},
	{"axpy",
		func(d, x, _ []float32, s float32) { axpy(d, x, s) },
		func(d, x, _ []float32, s float32) { axpyGo(d, x, s) }},
	{"scale",
		func(d, _, _ []float32, s float32) { scale(d, s) },
		func(d, _, _ []float32, s float32) { scaleGo(d, s) }},
	{"split",
		func(d, x, _ []float32, _ float32) {
			w, ne, no := halves(d)
			deinterleave(d, d[ne:], x, 2, ne, no, w, w)
		},
		func(d, x, _ []float32, _ float32) {
			w, ne, no := halves(d)
			for r := range 2 {
				deinterleaveGo(d[r*w:][:ne], d[r*w+ne:][:no], x[r*w:])
			}
		}},
	{"merge",
		func(d, x, _ []float32, _ float32) { w, ne, no := halves(d); interleave(d, x, x[ne:], 2, ne, no, w, w) },
		func(d, x, _ []float32, _ float32) {
			w, ne, no := halves(d)
			for r := range 2 {
				interleaveGo(d[r*w:], x[r*w:][:ne], x[r*w+ne:][:no])
			}
		}},
	{"addRows",
		func(d, x, _ []float32, _ float32) { c := len(d) / 2; addRows(d, x, 2, c, len(d)-c, c) },
		func(d, x, _ []float32, _ float32) {
			c := len(d) / 2
			addRowGo(d[:c], x[:c])
			addRowGo(d[len(d)-c:], x[c:2*c])
		}},
}

// halves splits d into two rows of w floats (a last float is left over
// when len(d) is odd), each holding ne even and no odd columns.
func halves(d []float32) (w, ne, no int) {
	w = len(d) / 2
	return w, (w + 1) / 2, w / 2
}

// maxElemLen is the longest operand the elementwise tests run: five
// whole 8-float vectors, so the row kernels reach two whole vectors a
// row (addRows) and one plus a tail a phase (split, merge).
const maxElemLen = 5 * 8

// runElem runs f over n-element operands filled from d, x and y (each
// cycled from index off) and returns d afterwards.
func runElem(f func(d, x, y []float32, s float32), d, x, y []float32, s float32, n, off int) []float32 {
	fill := func(src []float32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = src[(i+off)%len(src)]
		}
		return out
	}
	out := fill(d)
	f(out, fill(x), fill(y), s)
	return out
}

// TestElementwiseNaNOperandOrder pins each kernel's operand order: with a
// different NaN payload in each source of a multiply or add, x86 returns
// the first source's, so a vector kernel with its operands swapped differs
// from the scalar loop on exactly these inputs and nowhere else. Every
// length from 0 to maxElemLen runs, so both the vector body and the scalar
// tail are held to the payload the scalar loop's amd64 listing produces.
func TestElementwiseNaNOperandOrder(t *testing.T) {
	nanA, nanB := math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002)
	bits := math.Float32bits
	cases := []struct {
		kernel     string
		d, x, y, s float32
		want       float32
	}{
		{"leakyReLU", 0, nanB, 0, nanA, nanB},      // a NaN input passes through
		{"leakyReLU", 0, -1, 0, nanA, nanA},        // alpha·x
		{"leakyReLUGrad", 0, -1, nanB, nanA, nanA}, // alpha first in alpha·g
		{"addConst", 0, nanA, 0, nanB, nanA},       // x first in x + b
		{"axpy", nanA, nanB, 0, 1, nanA},           // t first in t + s·x
		{"axpy", 1, nanA, 0, nanB, nanA},           // x first in s·x
		{"scale", nanA, 0, 0, nanB, nanA},          // t first in t·s
		{"addRows", nanA, nanB, 0, 0, nanA},        // dst first in dst + src
	}
	for _, c := range cases {
		for _, k := range elemKernels {
			if k.name != c.kernel {
				continue
			}
			for n := 0; n <= maxElemLen; n++ {
				d, x, y := []float32{c.d}, []float32{c.x}, []float32{c.y}
				got := runElem(k.run, d, x, y, c.s, n, 0)
				want := runElem(k.loop, d, x, y, c.s, n, 0)
				for i := range got {
					if bits(got[i]) != bits(want[i]) || bits(want[i]) != bits(c.want) {
						t.Errorf("%s n=%d [%d] (d %#x, x %#x, y %#x, s %#x): got %#x, loop %#x, want %#x",
							k.name, n, i, bits(c.d), bits(c.x), bits(c.y), bits(c.s), bits(got[i]), bits(want[i]), bits(c.want))
					}
				}
			}
		}
	}
}

// TestElementwiseMatchesLoop compares every kernel's bits with its scalar
// loop over edge values (±0, NaNs, ±Inf, subnormals, ±MaxFloat32) mixed
// with random ones, at every length up to maxElemLen and at every
// rotation of the operands, so each value meets both the vector body and
// the scalar tail.
func TestElementwiseMatchesLoop(t *testing.T) {
	edges := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0xffc00003),
		math.Float32frombits(0x7f800001), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, -1e-45,
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := xrand.New(7)
	operand := func() []float32 {
		v := make([]float32, 3*maxElemLen)
		for i := range v {
			v[i] = float32(rng.Normal(0, 1))
		}
		for i, e := range edges {
			v[(7*i+rng.Intn(7))%len(v)] = e
		}
		return v
	}
	d, x, y := operand(), operand(), operand()
	bits := math.Float32bits
	for _, s := range []float32{0.1, -3, 0, float32(math.Inf(1)), float32(math.NaN())} {
		for _, k := range elemKernels {
			if k.name == "leakyReLU" && !(s > 0 && s <= math.MaxFloat32) {
				continue // LeakyReLUInto's slope must be finite and > 0
			}
			for n := 0; n <= maxElemLen; n++ {
				for off := range len(d) {
					got := runElem(k.run, d, x, y, s, n, off)
					want := runElem(k.loop, d, x, y, s, n, off)
					for i := range got {
						if bits(got[i]) != bits(want[i]) {
							t.Fatalf("%s s=%v n=%d off=%d [%d]: got %#x, loop %#x", k.name, s, n, off, i, bits(got[i]), bits(want[i]))
						}
					}
				}
			}
		}
	}
}
