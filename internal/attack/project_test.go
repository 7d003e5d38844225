package attack

import (
	"math"
	"testing"

	"repro/internal/box"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// projectBranchy is the branching projection project replaced, kept as
// the reference its bits are pinned to.
func projectBranchy(z, orig *tensor.Tensor, eps float64, mask *tensor.Tensor) {
	zd := z.Data()
	od := orig.Data()
	var md []float32
	if mask != nil {
		md = mask.Data()
	}
	e := float32(eps)
	for i := range zd {
		if md != nil && md[i] == 0 {
			zd[i] = od[i]
			continue
		}
		d := zd[i] - od[i]
		if d > e {
			d = e
		} else if d < -e {
			d = -e
		}
		v := od[i] + d
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		zd[i] = v
	}
}

// TestProjectMatchesBranchy pins project to the branching form bit for
// bit over a table of pixel pairs: NaNs of three payloads (one with the
// sign bit set), ±0, ±Inf, the range ends 0 and 1 and values past them,
// and z exactly at o ± ε and one ulp beyond, for ε = 0, a small and a
// large budget, with no mask and with mask entries +0, −0, 1 and NaN.
// Where z and o are both NaN and the pixel is free, which payload the
// branching form's o + d keeps is the compiler's choice of first operand
// (o's in a plain amd64 build, d's under -race), so there project is held
// to its own rule instead: o's payload, quieted.
func TestProjectMatchesBranchy(t *testing.T) {
	nan := func(b uint32) float32 { return math.Float32frombits(b) }
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{
		nan(0x7fc00000), nan(0x7fc00123), nan(0xffc00456),
		0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)),
		1, -1, 0.5, 1.5, -0.5, 1e-30, -1e-30, math.Nextafter32(1, 2), math.Nextafter32(0, -1),
	}
	for _, eps := range []float64{0, 8.0 / 255, 0.5} {
		e := float32(eps)
		var zs, os []float32
		for _, o := range specials {
			for _, z := range append([]float32{o + e, o - e, math.Nextafter32(o+e, 2), math.Nextafter32(o-e, -2)}, specials...) {
				zs, os = append(zs, z), append(os, o)
			}
		}
		n := len(zs)
		for _, maskVal := range []float32{-1, 0, negZero, 1, nan(0x7fc00000)} { // -1: no mask
			var mask *tensor.Tensor
			if maskVal != -1 {
				mask = tensor.New(n)
				mask.Fill(maskVal)
				// Every other pixel is free, so each mask value meets frozen and free pixels.
				for i := 0; i < n; i += 2 {
					mask.Data()[i] = 1
				}
			}
			orig := tensor.FromSlice(append([]float32(nil), os...), n)
			got, want := tensor.FromSlice(append([]float32(nil), zs...), n), tensor.FromSlice(append([]float32(nil), zs...), n)
			project(got, orig, eps, mask)
			projectBranchy(want, orig, eps, mask)
			for i := range zs {
				w := math.Float32bits(want.Data()[i])
				if zs[i] != zs[i] && os[i] != os[i] && (mask == nil || mask.Data()[i] != 0) {
					w = math.Float32bits(os[i]) | 1<<22
				}
				if g := math.Float32bits(got.Data()[i]); g != w {
					t.Errorf("eps=%v mask=%v z=%v (%#x) o=%v: got %#x, want %#x",
						eps, maskVal, zs[i], math.Float32bits(zs[i]), os[i], g, w)
				}
			}
		}
	}
}

// BenchmarkProject times one projection of a 3×64×64 frame whose step
// overshoots the ε ball on about half the pixels in no pattern, as an
// Auto-PGD step does, without a mask and with a 24×16 box mask, against
// the branching reference.
func BenchmarkProject(b *testing.B) {
	const eps = 8.0 / 255
	rng := xrand.New(3)
	orig, z, step := tensor.New(3, 64, 64), tensor.New(3, 64, 64), tensor.New(3, 64, 64)
	rng.FillUniform(orig.Data(), 0, 1)
	rng.FillUniform(step.Data(), -2*eps, 2*eps)
	boxMask := BoxMask(3, 64, 64, box.Box{X0: 20, Y0: 30, X1: 44, Y1: 46}, 0)
	for _, c := range []struct {
		name string
		f    func(z, orig *tensor.Tensor, eps float64, mask *tensor.Tensor)
	}{{"branchy", projectBranchy}, {"select", project}} {
		for _, m := range []struct {
			name string
			mask *tensor.Tensor
		}{{"nomask", nil}, {"box", boxMask}} {
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(z.Data(), orig.Data())
					z.AddScaledInPlace(step, 1)
					c.f(z, orig, eps, m.mask)
				}
			})
		}
	}
}
