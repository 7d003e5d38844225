package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Upsample2x doubles spatial resolution by nearest-neighbour repetition;
// the decoder half of the diffusion UNet uses it. Like the other layers it
// accepts CHW samples or [N,C,H,W] batches.
type Upsample2x struct {
	scratch
	lastC, lastH, lastW int
	lastBatch           int
}

var _ Layer = (*Upsample2x)(nil)

// NewUpsample2x returns a 2× nearest-neighbour upsampling layer.
func NewUpsample2x() *Upsample2x { return &Upsample2x{} }

// Forward implements Layer.
func (u *Upsample2x) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	var nb, c, h, w int
	switch x.Rank() {
	case 3:
		nb, c, h, w = 1, x.Dim(0), x.Dim(1), x.Dim(2)
	case 4:
		nb, c, h, w = x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	default:
		panic(fmt.Sprintf("nn: Upsample2x expects CHW or NCHW, got %v", x.Shape()))
	}
	u.lastC, u.lastH, u.lastW = c, h, w
	u.lastBatch = nb
	var out *tensor.Tensor
	if x.Rank() == 3 {
		out = u.workspace().Tensor3(u, "out", c, h*2, w*2)
	} else {
		out = u.workspace().Tensor4(u, "out4", nb, c, h*2, w*2)
	}
	inSample := c * h * w
	outSample := inSample * 4
	for s := 0; s < nb; s++ {
		xd := x.Data()[s*inSample : (s+1)*inSample]
		od := out.Data()[s*outSample : (s+1)*outSample]
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				row := xd[(ch*h+y)*w : (ch*h+y+1)*w]
				o0 := (ch*h*2 + y*2) * w * 2
				o1 := o0 + w*2
				for xi, v := range row {
					od[o0+2*xi] = v
					od[o0+2*xi+1] = v
					od[o1+2*xi] = v
					od[o1+2*xi+1] = v
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (u *Upsample2x) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c, h, w := u.lastC, u.lastH, u.lastW
	var dx *tensor.Tensor
	if u.lastBatch == 1 && grad.Rank() == 3 {
		dx = u.workspace().Tensor3(u, "dx", c, h, w)
	} else {
		dx = u.workspace().Tensor4(u, "dx4", u.lastBatch, c, h, w)
	}
	w2 := w * 2
	inSample := c * h * w
	outSample := inSample * 4
	for s := 0; s < u.lastBatch; s++ {
		gd := grad.Data()[s*outSample : (s+1)*outSample]
		dxd := dx.Data()[s*inSample : (s+1)*inSample]
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				g0 := (ch*h*2 + y*2) * w2
				g1 := g0 + w2
				drow := dxd[(ch*h+y)*w : (ch*h+y+1)*w]
				for xi := range drow {
					drow[xi] = gd[g0+2*xi] + gd[g0+2*xi+1] + gd[g1+2*xi] + gd[g1+2*xi+1]
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (u *Upsample2x) Params() []*Param { return nil }

// Clone implements Layer.
func (u *Upsample2x) Clone() Layer { return &Upsample2x{} }
