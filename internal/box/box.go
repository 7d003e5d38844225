// Package box defines axis-aligned bounding boxes and the IoU arithmetic
// shared by the scene generators, the detector and the evaluation metrics.
package box

import "math"

// Box is an axis-aligned box in pixel coordinates with inclusive-exclusive
// extents: x in [X0, X1), y in [Y0, Y1).
type Box struct {
	X0, Y0, X1, Y1 float64
}

// New returns a box with coordinates normalised so X0<=X1 and Y0<=Y1.
func New(x0, y0, x1, y1 float64) Box {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Box{X0: x0, Y0: y0, X1: x1, Y1: y1}
}

// FromCenter builds a box from a center point and full width/height.
func FromCenter(cx, cy, w, h float64) Box {
	return Box{X0: cx - w/2, Y0: cy - h/2, X1: cx + w/2, Y1: cy + h/2}
}

// W returns the box width.
func (b Box) W() float64 { return b.X1 - b.X0 }

// H returns the box height.
func (b Box) H() float64 { return b.Y1 - b.Y0 }

// CX returns the center x coordinate.
func (b Box) CX() float64 { return (b.X0 + b.X1) / 2 }

// CY returns the center y coordinate.
func (b Box) CY() float64 { return (b.Y0 + b.Y1) / 2 }

// Area returns the box area (0 for degenerate boxes).
func (b Box) Area() float64 {
	w, h := b.W(), b.H()
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Empty reports whether the box has no area.
func (b Box) Empty() bool { return b.Area() <= 0 }

// Intersect returns the overlapping region of two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	return Box{
		X0: math.Max(b.X0, o.X0),
		Y0: math.Max(b.Y0, o.Y0),
		X1: math.Min(b.X1, o.X1),
		Y1: math.Min(b.Y1, o.Y1),
	}
}

// IoU returns the intersection-over-union of two boxes in [0, 1].
func (b Box) IoU(o Box) float64 {
	inter := b.Intersect(o).Area()
	if inter <= 0 {
		return 0
	}
	union := b.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Clip restricts the box to [0,w)×[0,h).
func (b Box) Clip(w, h float64) Box {
	return Box{
		X0: math.Max(0, b.X0),
		Y0: math.Max(0, b.Y0),
		X1: math.Min(w, b.X1),
		Y1: math.Min(h, b.Y1),
	}
}

// Expand grows the box by m pixels on every side.
func (b Box) Expand(m float64) Box {
	return Box{X0: b.X0 - m, Y0: b.Y0 - m, X1: b.X1 + m, Y1: b.Y1 + m}
}
