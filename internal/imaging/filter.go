package imaging

import "math"

// MedianBlur replaces each pixel with the median of its k×k neighbourhood
// (k odd, clamp-to-edge borders). Median filtering suppresses isolated
// adversarial pixels while preserving edges, which is why it is the
// strongest of the classical preprocessing defenses in the paper.
func MedianBlur(im *Image, k int) *Image {
	out := NewImage(im.C, im.H, im.W)
	MedianBlurInto(out, im, k)
	return out
}

// medianStackWindow is the largest kernel whose sort window lives on the
// stack; bigger (unusual) kernels fall back to one heap window per call.
const medianStackWindow = 7

// MedianBlurInto is MedianBlur writing into dst, which must match im's
// geometry and not alias it.
//
// The 3×3 window the defenses use slides along each row: every clamped
// 3-tall column is sorted once, and a pixel's median is
// med3(max of the lows, med3 of the mids, min of the highs) over its three
// sorted columns — for totally ordered values exactly the 5th smallest of
// the 9. Other kernels, and the two cases where that identity does not fix
// the bits, insertion-sort each window on a stack buffer: a plane holding a
// NaN (no total order), and a pixel whose median is zero (the stable sort
// decides which signed zero it returns). Either way the filter allocates
// nothing for k ≤ 7, so per-frame latency measures filtering rather than
// the allocator.
func MedianBlurInto(dst, im *Image, k int) *Image {
	if k%2 == 0 {
		panic("imaging: MedianBlur kernel must be odd")
	}
	checkInto(dst, im, "MedianBlurInto")
	var stack [medianStackWindow * medianStackWindow]float32
	window := stack[:]
	if k > medianStackWindow {
		window = make([]float32, k*k)
	}
	plane := im.H * im.W
	for c := 0; c < im.C; c++ {
		if k == 3 && !hasNaN(im.Pix[c*plane:(c+1)*plane]) {
			median3Plane(dst, im, c, window)
			continue
		}
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				dst.Set(c, y, x, sortedMedian(window, im, c, y, x, k/2))
			}
		}
	}
	return dst
}

// median3Plane writes the 3×3 median of channel c of im into dst with the
// sliding sorted-column window. The plane must hold no NaN.
func median3Plane(dst, im *Image, c int, window []float32) {
	w := im.W
	src := im.Pix[c*im.H*w : (c+1)*im.H*w]
	for y := 0; y < im.H; y++ {
		up := src[max(y-1, 0)*w:][:w]
		mid := src[y*w:][:w]
		down := src[min(y+1, im.H-1)*w:][:w]
		out := dst.Pix[(c*im.H+y)*w:][:w]
		// Columns x-1, x and x+1, clamped to the row.
		l0, m0, h0 := sort3(up[0], mid[0], down[0])
		l1, m1, h1 := l0, m0, h0
		for x := range out {
			nx := min(x+1, w-1)
			l2, m2, h2 := sort3(up[nx], mid[nx], down[nx])
			v := med3(max(l0, l1, l2), med3(m0, m1, m2), min(h0, h1, h2))
			if v == 0 {
				v = sortedMedian(window, im, c, y, x, 1)
			}
			out[x] = v
			l0, m0, h0 = l1, m1, h1
			l1, m1, h1 = l2, m2, h2
		}
	}
}

// sort3 orders three values with three branchless compare-exchanges.
func sort3(a, b, c float32) (lo, mid, hi float32) {
	lo, hi = min(a, b), max(a, b)
	return min(lo, c), max(lo, min(hi, c)), max(hi, c)
}

// med3 returns the median of three values.
func med3(a, b, c float32) float32 {
	return max(min(a, b), min(max(a, b), c))
}

// sortedMedian returns the median of the (2r+1)² clamped window around
// (y, x) in channel c, insertion-sorting it into window (which must hold
// (2r+1)² values). The sort is stable, which fixes the bits the sliding
// 3×3 path defers to it: the sign of a zero median, and the order NaNs
// leave behind.
func sortedMedian(window []float32, im *Image, c, y, x, r int) float32 {
	n := 0
	for dy := -r; dy <= r; dy++ {
		sy := clampInt(y+dy, 0, im.H-1)
		row := im.Pix[(c*im.H+sy)*im.W : (c*im.H+sy+1)*im.W]
		for dx := -r; dx <= r; dx++ {
			// Insertion sort as we go: shift the tail up until the new
			// sample's slot appears.
			v := row[clampInt(x+dx, 0, im.W-1)]
			i := n
			for i > 0 && window[i-1] > v {
				window[i] = window[i-1]
				i--
			}
			window[i] = v
			n++
		}
	}
	return window[n/2]
}

// hasNaN reports whether s holds a NaN.
func hasNaN(s []float32) bool {
	for _, v := range s {
		if v != v {
			return true
		}
	}
	return false
}

// BitDepthReduce quantises pixel values to the given number of bits per
// channel (feature squeezing); quantisation floors small perturbations to
// the nearest representable level.
func BitDepthReduce(im *Image, bits int) *Image {
	out := NewImage(im.C, im.H, im.W)
	return BitDepthReduceInto(out, im, bits)
}

// BitDepthReduceInto is BitDepthReduce writing into dst, which must match
// im's geometry (dst == im quantises in place).
func BitDepthReduceInto(dst, im *Image, bits int) *Image {
	if bits < 1 || bits > 8 {
		panic("imaging: BitDepthReduce bits must be in [1,8]")
	}
	checkInto(dst, im, "BitDepthReduceInto")
	levels := float32(int(1)<<bits - 1)
	for i, v := range im.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		dst.Pix[i] = float32(math.Round(float64(v*levels))) / levels
	}
	return dst
}

// GaussianBlurInto convolves each channel of im with a separable Gaussian
// kernel of the given sigma (radius 3σ, clamp-to-edge) into dst, which
// must match im's geometry and not alias it. The intermediate
// horizontal-pass image comes from the package image pool.
func GaussianBlurInto(dst, im *Image, sigma float64) *Image {
	checkInto(dst, im, "GaussianBlurInto")
	// The negated comparison also catches NaN, which would otherwise
	// produce a garbage kernel radius below; the second clause catches a
	// sigma so small that 2σ² underflows to zero, which would make the
	// kernel center 0/0 = NaN. Either way the blur is an identity.
	if !(sigma > 0) || 2*sigma*sigma == 0 {
		copy(dst.Pix, im.Pix)
		return dst
	}
	// Cap the radius at the image extent before the int conversion: past
	// that point a wider kernel only flattens the (already near-uniform)
	// result, while an unbounded sigma (up to +Inf) would overflow the
	// conversion or attempt an enormous allocation.
	rf := math.Ceil(3 * sigma)
	if limit := float64(max(im.H, im.W)); rf > limit {
		rf = limit
	}
	r := int(rf)
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

	// Every output element accumulates its taps in ascending order from
	// zero, one rounding per product and per sum: float32(kv * v) keeps
	// the compiler from fusing them into one multiply-add, so the bits do
	// not depend on the architecture.
	tmp := GetImage(im.C, im.H, im.W)
	w := im.W
	// Horizontal pass: the interior of a row, whose taps never leave it,
	// accumulates as row-wide multiply-adds over shifted row slices; only
	// pixels within r of an edge (all of them when r ≥ W) clamp per tap.
	lo := min(r, w)
	hi := max(lo, w-r)
	for row := 0; row < im.C*im.H; row++ {
		src := im.Pix[row*w:][:w]
		out := tmp.Pix[row*w:][:w]
		if interior := out[lo:hi]; len(interior) > 0 {
			clear(interior)
			for i, kv := range kernel {
				addScaled(interior, src[lo-r+i:][:len(interior)], kv)
			}
		}
		for x := 0; x < lo; x++ {
			out[x] = blurClamped(src, kernel, x-r)
		}
		for x := hi; x < w; x++ {
			out[x] = blurClamped(src, kernel, x-r)
		}
	}
	// Vertical pass: each output row sums its tap rows, in ascending tap
	// order, as row-wide multiply-adds.
	for c := 0; c < im.C; c++ {
		for y := 0; y < im.H; y++ {
			out := dst.Pix[(c*im.H+y)*w:][:w]
			clear(out)
			for i, kv := range kernel {
				sy := clampInt(y+i-r, 0, im.H-1)
				addScaled(out, tmp.Pix[(c*im.H+sy)*w:][:w], kv)
			}
		}
	}
	PutImage(tmp)
	return dst
}

// addScaled adds kv·src[x] to dst[x] for every x, rounding the product
// before the sum.
func addScaled(dst, src []float32, kv float32) {
	dst = dst[:len(src)]
	for x, v := range src {
		dst[x] += float32(kv * v)
	}
}

// blurClamped is one horizontal-pass output whose taps start at column x0
// and are clamped to the row.
func blurClamped(src, kernel []float32, x0 int) float32 {
	var acc float32
	for i, kv := range kernel {
		acc += float32(kv * src[clampInt(x0+i, 0, len(src)-1)])
	}
	return acc
}

// checkInto validates the destination-passing contract shared by the
// *Into filters: matching geometry.
func checkInto(dst, im *Image, op string) {
	if dst.C != im.C || dst.H != im.H || dst.W != im.W {
		panic("imaging: " + op + " destination geometry mismatch")
	}
}
