// Package imaging provides the float image type shared by the scene
// generators, the attacks and the defenses, plus the drawing primitives,
// geometric transforms and classical filters the paper's pipeline needs.
//
// Images are stored channels-first (CHW) with values in [0, 1] so that a
// model input is simply a view of the pixel buffer — no conversion between
// the "image domain" (where attacks perturb pixels) and the "tensor domain"
// (where gradients live).
package imaging

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"

	"repro/internal/tensor"
)

// Color is an RGB triple with components in [0, 1].
type Color [3]float32

// Common palette used by the scene generators and the RP2 printability set.
var (
	Black     = Color{0, 0, 0}
	White     = Color{1, 1, 1}
	Red       = Color{0.82, 0.07, 0.07}
	DarkRed   = Color{0.55, 0.04, 0.04}
	Gray      = Color{0.5, 0.5, 0.5}
	DarkGray  = Color{0.25, 0.25, 0.27}
	LightGray = Color{0.75, 0.75, 0.75}
	Asphalt   = Color{0.32, 0.32, 0.34}
	SkyBlue   = Color{0.62, 0.77, 0.92}
	Grass     = Color{0.30, 0.52, 0.25}
	Yellow    = Color{0.95, 0.85, 0.15}
	Blue      = Color{0.15, 0.25, 0.75}
)

// Scale returns the color with every component multiplied by s (clamped).
func (c Color) Scale(s float32) Color {
	out := Color{}
	for i, v := range c {
		x := v * s
		if x < 0 {
			x = 0
		} else if x > 1 {
			x = 1
		}
		out[i] = x
	}
	return out
}

// Image is a dense CHW float image with C channels (3 for RGB) and values
// nominally in [0, 1]. Attacks may push values outside the range; Clamp
// restores validity before the image is treated as a sensor output.
type Image struct {
	C, H, W int
	Pix     []float32 // len = C*H*W, channel-major

	// view is the memoised Tensor() wrapper over Pix. Constructors set it
	// eagerly so Tensor() is a pure read — safe for concurrent readers
	// sharing one image (the evaluation workers do exactly that).
	view *tensor.Tensor
}

// NewImage returns a black image of the given size.
func NewImage(c, h, w int) *Image {
	im := &Image{C: c, H: h, W: w, Pix: make([]float32, c*h*w)}
	im.view = tensor.FromSlice(im.Pix, c, h, w)
	return im
}

// NewRGB returns a black 3-channel image.
func NewRGB(h, w int) *Image { return NewImage(3, h, w) }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := NewImage(im.C, im.H, im.W)
	copy(out.Pix, im.Pix)
	return out
}

// At returns the pixel value of channel c at row y, column x.
func (im *Image) At(c, y, x int) float32 { return im.Pix[(c*im.H+y)*im.W+x] }

// Set stores v in channel c at row y, column x.
func (im *Image) Set(c, y, x int, v float32) { im.Pix[(c*im.H+y)*im.W+x] = v }

// SetRGB writes an RGB color at (y, x). The image must have 3 channels.
func (im *Image) SetRGB(y, x int, col Color) {
	for c := 0; c < 3; c++ {
		im.Pix[(c*im.H+y)*im.W+x] = col[c]
	}
}

// Fill paints the whole image with a color.
func (im *Image) Fill(col Color) {
	plane := im.H * im.W
	for c := 0; c < im.C; c++ {
		v := col[c%3]
		row := im.Pix[c*plane : (c+1)*plane]
		for i := range row {
			row[i] = v
		}
	}
}

// Clamp clips all pixels to [0, 1] in place and returns the image.
func (im *Image) Clamp() *Image {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
	return im
}

// Tensor returns a tensor view sharing the pixel buffer (no copy); writing
// to the tensor mutates the image. The view is memoised, so repeated calls
// on the hot perception/attack paths allocate nothing.
func (im *Image) Tensor() *tensor.Tensor {
	if v := im.view; v != nil {
		vd := v.Data()
		if len(vd) == len(im.Pix) && len(vd) > 0 && &vd[0] == &im.Pix[0] && v.ShapeEq(im.C, im.H, im.W) {
			return v
		}
	}
	im.view = tensor.FromSlice(im.Pix, im.C, im.H, im.W)
	return im.view
}

// PackInto copies size×size RGB frames into one [N,3,size,size] model
// input and returns it. dst is reused when it already has that shape and
// replaced by a new tensor otherwise, so a caller that keeps the result
// and packs the same batch size again allocates nothing. It panics if a
// frame has the wrong pixel count.
func PackInto(dst *tensor.Tensor, imgs []*Image, size int) *tensor.Tensor {
	n := len(imgs)
	if dst == nil || !dst.ShapeEq(n, 3, size, size) {
		dst = tensor.New(n, 3, size, size)
	}
	sample := 3 * size * size
	d := dst.Data()
	for i, img := range imgs {
		if len(img.Pix) != sample {
			panic(fmt.Sprintf("imaging: PackInto frame %d has %d pixels, want %d", i, len(img.Pix), sample))
		}
		copy(d[i*sample:(i+1)*sample], img.Pix)
	}
	return dst
}

// FromTensor wraps a CHW tensor as an image sharing storage.
func FromTensor(t *tensor.Tensor) *Image {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("imaging: FromTensor needs CHW, got %v", t.Shape()))
	}
	return &Image{C: t.Dim(0), H: t.Dim(1), W: t.Dim(2), Pix: t.Data(), view: t}
}

// MeanAbsDiff returns the mean absolute per-pixel difference between two
// same-sized images; tests and metrics use it as a cheap distortion gauge.
func (im *Image) MeanAbsDiff(o *Image) float64 {
	if len(im.Pix) != len(o.Pix) {
		panic("imaging: MeanAbsDiff size mismatch")
	}
	var s float64
	for i := range im.Pix {
		d := float64(im.Pix[i] - o.Pix[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(im.Pix))
}

// EncodePNG writes the image as an 8-bit PNG.
func (im *Image) EncodePNG(w io.Writer) error {
	if im.C != 3 && im.C != 1 {
		return fmt.Errorf("imaging: EncodePNG supports 1 or 3 channels, have %d", im.C)
	}
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var r, g, b float32
			if im.C == 3 {
				r, g, b = im.At(0, y, x), im.At(1, y, x), im.At(2, y, x)
			} else {
				r = im.At(0, y, x)
				g, b = r, r
			}
			out.Set(x, y, color.RGBA{to8(r), to8(g), to8(b), 255})
		}
	}
	return png.Encode(w, out)
}

// SavePNG writes the image to a PNG file.
func (im *Image) SavePNG(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return im.EncodePNG(f)
}

func to8(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}
