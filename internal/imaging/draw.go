package imaging

import "math"

// Point is a 2-D coordinate in pixel space (x right, y down). Fractional
// coordinates are allowed; rasterisation rounds per scanline.
type Point struct{ X, Y float64 }

// FillRect paints the axis-aligned rectangle [y0,y1)×[x0,x1), clipped to
// the image bounds.
func (im *Image) FillRect(y0, x0, y1, x1 int, col Color) {
	y0, x0 = max(0, y0), max(0, x0)
	y1, x1 = min(im.H, y1), min(im.W, x1)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			im.SetRGB(y, x, col)
		}
	}
}

// VerticalGradient fills rows [y0,y1) with a vertical blend from top to
// bottom color.
func (im *Image) VerticalGradient(y0, y1 int, top, bottom Color) {
	y0 = max(0, y0)
	y1 = min(im.H, y1)
	span := float32(y1 - y0)
	if span <= 0 {
		return
	}
	for y := y0; y < y1; y++ {
		t := float32(y-y0) / span
		var col Color
		for c := 0; c < 3; c++ {
			col[c] = top[c]*(1-t) + bottom[c]*t
		}
		for x := 0; x < im.W; x++ {
			im.SetRGB(y, x, col)
		}
	}
}

// FillPolygon rasterises a simple (convex or concave, non-self-
// intersecting) polygon with the even-odd scanline rule.
func (im *Image) FillPolygon(pts []Point, col Color) {
	if len(pts) < 3 {
		return
	}
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	y0 := max(0, int(math.Floor(minY)))
	y1 := min(im.H-1, int(math.Ceil(maxY)))
	xs := make([]float64, 0, len(pts))
	for y := y0; y <= y1; y++ {
		cy := float64(y) + 0.5
		xs = xs[:0]
		j := len(pts) - 1
		for i := 0; i < len(pts); i++ {
			a, b := pts[i], pts[j]
			if (a.Y <= cy && b.Y > cy) || (b.Y <= cy && a.Y > cy) {
				t := (cy - a.Y) / (b.Y - a.Y)
				xs = append(xs, a.X+t*(b.X-a.X))
			}
			j = i
		}
		// Insertion sort — crossing lists are tiny.
		for i := 1; i < len(xs); i++ {
			for k := i; k > 0 && xs[k] < xs[k-1]; k-- {
				xs[k], xs[k-1] = xs[k-1], xs[k]
			}
		}
		for i := 0; i+1 < len(xs); i += 2 {
			x0 := max(0, int(math.Ceil(xs[i]-0.5)))
			x1 := min(im.W-1, int(math.Floor(xs[i+1]-0.5)))
			for x := x0; x <= x1; x++ {
				im.SetRGB(y, x, col)
			}
		}
	}
}

// RegularPolygon returns n vertices of a regular polygon centred at
// (cx, cy) with circumradius r, rotated by rot radians.
func RegularPolygon(cx, cy, r float64, n int, rot float64) []Point {
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		a := rot + 2*math.Pi*float64(i)/float64(n)
		pts[i] = Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)}
	}
	return pts
}

// FillCircle paints a filled disc.
func (im *Image) FillCircle(cy, cx, r float64, col Color) {
	y0 := max(0, int(cy-r-1))
	y1 := min(im.H-1, int(cy+r+1))
	x0 := max(0, int(cx-r-1))
	x1 := min(im.W-1, int(cx+r+1))
	r2 := r * r
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dy := float64(y) + 0.5 - cy
			dx := float64(x) + 0.5 - cx
			if dy*dy+dx*dx <= r2 {
				im.SetRGB(y, x, col)
			}
		}
	}
}

// DrawLine draws a 1-pixel line from (y0,x0) to (y1,x1) using DDA stepping.
func (im *Image) DrawLine(y0, x0, y1, x1 float64, col Color) {
	dy, dx := y1-y0, x1-x0
	steps := int(math.Max(math.Abs(dy), math.Abs(dx))) + 1
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		y := int(y0 + t*dy)
		x := int(x0 + t*dx)
		if y >= 0 && y < im.H && x >= 0 && x < im.W {
			im.SetRGB(y, x, col)
		}
	}
}

// glyphRows is a 5x3 block font for the letters of "STOP"; enough to give
// the synthetic sign the white-on-red glyph texture the detector keys on.
var glyphRows = map[rune][5]uint8{
	'S': {0b111, 0b100, 0b111, 0b001, 0b111},
	'T': {0b111, 0b010, 0b010, 0b010, 0b010},
	'O': {0b111, 0b101, 0b101, 0b101, 0b111},
	'P': {0b111, 0b101, 0b111, 0b100, 0b100},
}

// DrawGlyphText renders text in the 5x3 block font with the given pixel
// scale, anchored at top-left (y, x). Unknown runes are skipped.
func (im *Image) DrawGlyphText(y, x int, text string, scale int, col Color) {
	cx := x
	for _, r := range text {
		rows, ok := glyphRows[r]
		if !ok {
			cx += 4 * scale
			continue
		}
		for ry, bits := range rows {
			for rx := 0; rx < 3; rx++ {
				if bits&(1<<(2-rx)) == 0 {
					continue
				}
				im.FillRect(y+ry*scale, cx+rx*scale, y+(ry+1)*scale, cx+(rx+1)*scale, col)
			}
		}
		cx += 4 * scale
	}
}
