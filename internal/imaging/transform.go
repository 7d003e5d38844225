package imaging

import (
	"repro/internal/xrand"
)

// ResizeBilinearInto resamples im into dst with bilinear interpolation
// (dst's geometry defines the target size; same channel count, no
// aliasing) and returns dst: the resizer of the randomization defense
// and of CAP's patch carry-over.
func (im *Image) ResizeBilinearInto(dst *Image) *Image {
	if dst.C != im.C {
		panic("imaging: ResizeBilinearInto channel mismatch")
	}
	out, h, w := dst, dst.H, dst.W
	if h == im.H && w == im.W {
		copy(out.Pix, im.Pix)
		return out
	}
	sy := float64(im.H) / float64(h)
	sx := float64(im.W) / float64(w)
	for c := 0; c < im.C; c++ {
		for y := 0; y < h; y++ {
			fy := (float64(y)+0.5)*sy - 0.5
			y0 := int(fy)
			if fy < 0 {
				y0, fy = 0, 0
			}
			y1 := y0 + 1
			if y1 >= im.H {
				y1 = im.H - 1
			}
			wy := float32(fy - float64(y0))
			for x := 0; x < w; x++ {
				fx := (float64(x)+0.5)*sx - 0.5
				x0 := int(fx)
				if fx < 0 {
					x0, fx = 0, 0
				}
				x1 := x0 + 1
				if x1 >= im.W {
					x1 = im.W - 1
				}
				wx := float32(fx - float64(x0))
				v00 := im.At(c, y0, x0)
				v01 := im.At(c, y0, x1)
				v10 := im.At(c, y1, x0)
				v11 := im.At(c, y1, x1)
				top := v00*(1-wx) + v01*wx
				bot := v10*(1-wx) + v11*wx
				out.Set(c, y, x, top*(1-wy)+bot*wy)
			}
		}
	}
	return out
}

// PadToInto embeds the image in dst (whose geometry defines the canvas;
// same channel count, no aliasing) filled with fill, placing the original
// at offset (oy, ox), and returns dst. Pixels falling outside are dropped.
func (im *Image) PadToInto(dst *Image, oy, ox int, fill Color) *Image {
	if dst.C != im.C {
		panic("imaging: PadToInto channel mismatch")
	}
	out, h, w := dst, dst.H, dst.W
	out.Fill(fill)
	for c := 0; c < im.C; c++ {
		for y := 0; y < im.H; y++ {
			ty := y + oy
			if ty < 0 || ty >= h {
				continue
			}
			for x := 0; x < im.W; x++ {
				tx := x + ox
				if tx < 0 || tx >= w {
					continue
				}
				out.Set(c, ty, tx, im.At(c, y, x))
			}
		}
	}
	return out
}

// AdjustBrightness multiplies all pixels by s and clamps to [0,1].
func (im *Image) AdjustBrightness(s float32) *Image {
	out := im.Clone()
	for i, v := range out.Pix {
		x := v * s
		if x > 1 {
			x = 1
		} else if x < 0 {
			x = 0
		}
		out.Pix[i] = x
	}
	return out
}

// AddGaussianNoise adds N(0, std²) noise to every pixel (no clamping; the
// caller decides whether the result is a sensor image or a raw tensor).
func (im *Image) AddGaussianNoise(rng *xrand.RNG, std float64) *Image {
	out := im.Clone()
	for i := range out.Pix {
		out.Pix[i] += float32(rng.Normal(0, std))
	}
	return out
}

// Translate shifts the image by (dy, dx) pixels, filling vacated space
// with the edge pixel (clamp-to-edge), approximating small viewpoint jitter.
func (im *Image) Translate(dy, dx int) *Image {
	out := NewImage(im.C, im.H, im.W)
	for c := 0; c < im.C; c++ {
		for y := 0; y < im.H; y++ {
			sy := clampInt(y-dy, 0, im.H-1)
			for x := 0; x < im.W; x++ {
				sx := clampInt(x-dx, 0, im.W-1)
				out.Set(c, y, x, im.At(c, sy, sx))
			}
		}
	}
	return out
}

// RandomResizePad implements the randomization defense of Xie et al.:
// resize to a random smaller size, then pad back to the original size at a
// random offset. A small amount of noise is added to further break
// adversarial pixel alignment.
func RandomResizePad(rng *xrand.RNG, im *Image, minScale float64, noiseStd float64) *Image {
	return RandomResizePadInto(rng, NewImage(im.C, im.H, im.W), im, minScale, noiseStd)
}

// RandomResizePadInto is RandomResizePad writing into dst, which must match
// im's geometry and not alias it. The resized intermediate comes from the
// package image pool, so the steady state allocates nothing.
func RandomResizePadInto(rng *xrand.RNG, dst, im *Image, minScale float64, noiseStd float64) *Image {
	checkInto(dst, im, "RandomResizePadInto")
	scale := rng.Uniform(minScale, 1.0)
	nh := max(8, int(float64(im.H)*scale))
	nw := max(8, int(float64(im.W)*scale))
	small := im.ResizeBilinearInto(GetImage(im.C, nh, nw))
	oy := 0
	if im.H > nh {
		oy = rng.Intn(im.H - nh + 1)
	}
	ox := 0
	if im.W > nw {
		ox = rng.Intn(im.W - nw + 1)
	}
	small.PadToInto(dst, oy, ox, Gray)
	PutImage(small)
	if noiseStd > 0 {
		for i := range dst.Pix {
			dst.Pix[i] += float32(rng.Normal(0, noiseStd))
		}
	}
	return dst.Clamp()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
