package imaging

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// fuzzImage builds a small image with pseudo-random pixels; out-of-range
// values are included deliberately since attacks can push pixels outside
// [0,1] before a defense filter sees them.
func fuzzImage(h, w uint8, seed int64, wild bool) *Image {
	im := NewRGB(int(h)%12+1, int(w)%12+1)
	rng := xrand.New(seed)
	for i := range im.Pix {
		if wild {
			im.Pix[i] = float32(rng.Uniform(-0.5, 1.5))
		} else {
			im.Pix[i] = rng.Float32()
		}
	}
	return im
}

// channelBounds returns the min/max pixel value per channel.
func channelBounds(im *Image, c int) (lo, hi float32) {
	plane := im.Pix[c*im.H*im.W : (c+1)*im.H*im.W]
	lo, hi = plane[0], plane[0]
	for _, v := range plane {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// The pixel distributions FuzzMedianBlur feeds the filter (medianPlanes
// counts them): the cases where a sorting shortcut could pick a different
// bit pattern than the stable insertion sort.
const (
	medianUniform  = iota // [0, 1)
	medianWild            // [-0.5, 1.5): attacked, unclamped pixels
	medianZeroTies        // ±0 with a few repeated levels
	medianNaNPlane        // wild, with NaNs in one channel
	medianConstant        // one value everywhere
	medianPlanes
)

// medianImage builds a FuzzMedianBlur input of the given distribution.
func medianImage(h, w uint8, mode int, seed int64) *Image {
	im := fuzzImage(h, w, seed, mode != medianUniform)
	rng := xrand.New(seed ^ 0x5eed)
	negZero := float32(math.Copysign(0, -1))
	switch mode {
	case medianZeroTies:
		levels := []float32{0, negZero, 0.25, -0.25, 1}
		for i := range im.Pix {
			im.Pix[i] = levels[rng.Intn(len(levels))]
		}
	case medianNaNPlane:
		c := rng.Intn(im.C)
		plane := im.Pix[c*im.H*im.W : (c+1)*im.H*im.W]
		for i := range plane {
			if rng.Bool(0.3) {
				plane[i] = float32(math.NaN())
			} else if rng.Bool(0.3) {
				plane[i] = negZero
			}
		}
	case medianConstant:
		v := im.Pix[0]
		for i := range im.Pix {
			im.Pix[i] = v
		}
	}
	return im
}

// naiveMedianBlur is the reference median filter: each clamped k×k window
// is insertion-sorted (a stable sort) in row-major order and its middle
// element taken.
func naiveMedianBlur(im *Image, k int) *Image {
	out := NewImage(im.C, im.H, im.W)
	r := k / 2
	window := make([]float32, 0, k*k)
	for c := 0; c < im.C; c++ {
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				window = window[:0]
				for dy := -r; dy <= r; dy++ {
					for dx := -r; dx <= r; dx++ {
						v := im.At(c, clampInt(y+dy, 0, im.H-1), clampInt(x+dx, 0, im.W-1))
						i := len(window)
						window = append(window, v)
						for i > 0 && window[i-1] > v {
							window[i] = window[i-1]
							i--
						}
						window[i] = v
					}
				}
				out.Set(c, y, x, window[len(window)/2])
			}
		}
	}
	return out
}

// naiveGaussianBlur is the reference separable blur: per-tap At/Set with
// clamped coordinates, accumulating each output from zero in ascending tap
// order with the product rounded before the sum.
func naiveGaussianBlur(im *Image, sigma float64) *Image {
	out := NewImage(im.C, im.H, im.W)
	if !(sigma > 0) || 2*sigma*sigma == 0 {
		copy(out.Pix, im.Pix)
		return out
	}
	r := int(math.Min(math.Ceil(3*sigma), float64(max(im.H, im.W))))
	kernel := make([]float32, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		kernel[i+r] = float32(v)
		sum += v
	}
	for i := range kernel {
		kernel[i] = float32(float64(kernel[i]) / sum)
	}
	tmp := NewImage(im.C, im.H, im.W)
	for c := 0; c < im.C; c++ {
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var acc float32
				for i := -r; i <= r; i++ {
					acc += float32(kernel[i+r] * im.At(c, y, clampInt(x+i, 0, im.W-1)))
				}
				tmp.Set(c, y, x, acc)
			}
		}
	}
	for c := 0; c < im.C; c++ {
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var acc float32
				for i := -r; i <= r; i++ {
					acc += float32(kernel[i+r] * tmp.At(c, clampInt(y+i, 0, im.H-1), x))
				}
				out.Set(c, y, x, acc)
			}
		}
	}
	return out
}

// sameBits fails t at the first pixel whose bit pattern differs.
func sameBits(t *testing.T, got, want *Image) {
	t.Helper()
	if got.C != want.C || got.H != want.H || got.W != want.W {
		t.Fatalf("shape %dx%dx%d, want %dx%dx%d", got.C, got.H, got.W, want.C, want.H, want.W)
	}
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("pixel %d = %v (%#x), reference %v (%#x)", i,
				got.Pix[i], math.Float32bits(got.Pix[i]), want.Pix[i], math.Float32bits(want.Pix[i]))
		}
	}
}

func FuzzMedianBlur(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(1), uint8(medianUniform), int64(1))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(medianUniform), int64(2))
	f.Add(uint8(7), uint8(11), uint8(2), uint8(medianUniform), int64(3))
	for mode := medianWild; mode < medianPlanes; mode++ {
		for kRaw := uint8(0); kRaw < 3; kRaw++ {
			f.Add(uint8(9), uint8(10), kRaw, uint8(mode), int64(mode)*7+int64(kRaw))
		}
	}
	f.Add(uint8(0), uint8(11), uint8(1), uint8(medianWild), int64(4)) // 1×12
	f.Add(uint8(11), uint8(0), uint8(1), uint8(medianWild), int64(5)) // 12×1
	f.Add(uint8(0), uint8(6), uint8(1), uint8(medianZeroTies), int64(6))
	f.Add(uint8(6), uint8(0), uint8(2), uint8(medianNaNPlane), int64(7))
	f.Fuzz(func(t *testing.T, h, w, kRaw, mode uint8, seed int64) {
		im := medianImage(h, w, int(mode)%medianPlanes, seed)
		k := int(kRaw)%3*2 + 1 // 1, 3 or 5: kernel must be odd
		sameBits(t, MedianBlur(im, k), naiveMedianBlur(im, k))
	})
}

func FuzzBitDepthReduce(f *testing.F) {
	f.Add(uint8(4), uint8(6), uint8(4), int64(1))
	f.Add(uint8(2), uint8(2), uint8(1), int64(9))
	f.Add(uint8(9), uint8(3), uint8(8), int64(5))
	f.Fuzz(func(t *testing.T, h, w, bitsRaw uint8, seed int64) {
		im := fuzzImage(h, w, seed, true)
		bits := int(bitsRaw)%8 + 1
		out := BitDepthReduce(im, bits)
		levels := float32(int(1)<<bits - 1)
		for i, v := range out.Pix {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %d out of range: %v", i, v)
			}
			q := v * levels
			if diff := q - float32(int(q+0.5)); diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("pixel %d not on a quantisation level: %v (bits=%d)", i, v, bits)
			}
		}
		// Quantisation must be idempotent.
		again := BitDepthReduce(out, bits)
		if out.MeanAbsDiff(again) != 0 {
			t.Fatal("BitDepthReduce not idempotent")
		}
	})
}

func FuzzGaussianBlur(f *testing.F) {
	f.Add(uint8(5), uint8(5), float64(1.0), int64(1))
	f.Add(uint8(1), uint8(8), float64(0.3), int64(2))
	f.Add(uint8(10), uint8(2), float64(-1), int64(3))
	f.Add(uint8(3), uint8(3), math.Inf(1), int64(4))
	f.Add(uint8(4), uint8(4), math.NaN(), int64(5))
	f.Add(uint8(11), uint8(11), float64(0.7), int64(6)) // fog-brake's veil
	f.Add(uint8(2), uint8(9), float64(0.3), int64(7))
	f.Add(uint8(5), uint8(3), float64(4), int64(8))     // radius 12 ≥ W
	f.Add(uint8(0), uint8(11), float64(4), int64(9))    // 1×12, radius = W
	f.Add(uint8(11), uint8(0), float64(0.7), int64(10)) // 12×1
	f.Fuzz(func(t *testing.T, h, w uint8, sigma float64, seed int64) {
		im := fuzzImage(h, w, seed, false)
		out := GaussianBlurInto(NewImage(im.C, im.H, im.W), im, sigma)
		sameBits(t, out, naiveGaussianBlur(im, sigma))
		// A normalised non-negative kernel yields convex combinations:
		// output stays within the input's per-channel range (+ float slop).
		const eps = 1e-4
		for c := 0; c < im.C; c++ {
			lo, hi := channelBounds(im, c)
			for i, v := range out.Pix[c*im.H*im.W : (c+1)*im.H*im.W] {
				if v < lo-eps || v > hi+eps {
					t.Fatalf("channel %d pixel %d escaped input range: %v not in [%v,%v]", c, i, v, lo, hi)
				}
			}
		}
	})
}
