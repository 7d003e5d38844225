package defense

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// UNet is the small encoder-decoder noise-prediction network behind the
// diffusion defense. It has two skip connections (channel concatenation),
// which the generic Sequential container cannot express, so forward and
// backward are managed explicitly here.
//
// Topology for a (3+2)×S×S input (image + 2 timestep-embedding channels):
//
//	e1 = enc1(x)        10×S×S
//	e2 = enc2(e1)       16×S/2×S/2
//	e3 = enc3(e2)       24×S/4×S/4
//	m  = mid(e3)        24×S/4×S/4
//	d2 = dec2(up(m) ⊕ e2)  16×S/2×S/2
//	d1 = dec1(up(d2) ⊕ e1) 10×S×S
//	ε̂ = out(d1)         3×S×S
type UNet struct {
	enc1, enc2, enc3, mid *nn.Sequential
	up1, up2              *nn.Upsample2x
	dec2, dec1            *nn.Sequential
	out                   *nn.Sequential

	// forward caches
	e1, e2 *tensor.Tensor

	// reusable skip-concat buffers and their gradient halves (sized
	// lazily; a Clone gets fresh ones)
	cat2buf, cat1buf *tensor.Tensor
	gup2buf, ge2buf  *tensor.Tensor
	gup1buf, ge1buf  *tensor.Tensor

	params []*nn.Param // lazy cache for the per-step grad reset
}

// Channel widths of the UNet stages.
const (
	unetC1 = 10
	unetC2 = 16
	unetC3 = 24
)

// NewUNet builds the noise-prediction network for inC-channel inputs
// (image channels + timestep embedding channels).
func NewUNet(rng *xrand.RNG, inC int) *UNet {
	return &UNet{
		enc1: nn.NewSequential(
			nn.NewConv2D(rng, inC, unetC1, 3, 1, 1),
			nn.NewLeakyReLU(0.1),
		),
		enc2: nn.NewSequential(
			nn.NewConv2D(rng, unetC1, unetC2, 3, 2, 1),
			nn.NewLeakyReLU(0.1),
		),
		enc3: nn.NewSequential(
			nn.NewConv2D(rng, unetC2, unetC3, 3, 2, 1),
			nn.NewLeakyReLU(0.1),
		),
		mid: nn.NewSequential(
			nn.NewConv2D(rng, unetC3, unetC3, 3, 1, 1),
			nn.NewLeakyReLU(0.1),
		),
		up2: nn.NewUpsample2x(),
		dec2: nn.NewSequential(
			nn.NewConv2D(rng, unetC3+unetC2, unetC2, 3, 1, 1),
			nn.NewLeakyReLU(0.1),
		),
		up1: nn.NewUpsample2x(),
		dec1: nn.NewSequential(
			nn.NewConv2D(rng, unetC2+unetC1, unetC1, 3, 1, 1),
			nn.NewLeakyReLU(0.1),
		),
		out: nn.NewSequential(
			nn.NewConv2D(rng, unetC1, 3, 1, 1, 0),
		),
	}
}

// Params returns all trainable parameters. The slice is cached so the
// per-step ZeroGrad doesn't rebuild it.
func (u *UNet) Params() []*nn.Param {
	if u.params == nil {
		for _, s := range []*nn.Sequential{u.enc1, u.enc2, u.enc3, u.mid, u.dec2, u.dec1, u.out} {
			u.params = append(u.params, s.Params()...)
		}
	}
	return u.params
}

// ZeroGrad clears all parameter gradients.
func (u *UNet) ZeroGrad() {
	for _, p := range u.Params() {
		p.Grad.Zero()
	}
}

// Forward predicts the noise component of a noisy image stack.
func (u *UNet) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	u.e1 = u.enc1.Forward(x, train)
	u.e2 = u.enc2.Forward(u.e1, train)
	e3 := u.enc3.Forward(u.e2, train)
	m := u.mid.Forward(e3, train)
	d2 := u.dec2.Forward(concatCInto(&u.cat2buf, u.up2.Forward(m, train), u.e2), train)
	d1 := u.dec1.Forward(concatCInto(&u.cat1buf, u.up1.Forward(d2, train), u.e1), train)
	return u.out.Forward(d1, train)
}

// Backward propagates the output gradient, accumulating parameter
// gradients. The input gradient is not needed by the diffusion trainer and
// is discarded.
func (u *UNet) Backward(grad *tensor.Tensor) {
	gd1 := u.out.Backward(grad)
	gcat1 := u.dec1.Backward(gd1)
	gup1, ge1skip := splitCInto(&u.gup1buf, &u.ge1buf, gcat1, unetC2, unetC1)
	gd2 := u.up1.Backward(gup1)
	gcat2 := u.dec2.Backward(gd2)
	gup2, ge2skip := splitCInto(&u.gup2buf, &u.ge2buf, gcat2, unetC3, unetC2)
	gm := u.up2.Backward(gup2)
	ge3 := u.mid.Backward(gm)
	ge2 := u.enc3.Backward(ge3)
	ge2.AddInPlace(ge2skip) // two consumers of e2: enc3 and the skip
	ge1 := u.enc2.Backward(ge2)
	ge1.AddInPlace(ge1skip) // two consumers of e1: enc2 and the skip
	u.enc1.Backward(ge1)
}

// Clone returns an independent deep copy.
func (u *UNet) Clone() *UNet {
	return &UNet{
		enc1: u.enc1.Clone(), enc2: u.enc2.Clone(), enc3: u.enc3.Clone(),
		mid: u.mid.Clone(), dec2: u.dec2.Clone(), dec1: u.dec1.Clone(),
		out: u.out.Clone(), up1: nn.NewUpsample2x(), up2: nn.NewUpsample2x(),
	}
}

// concatCInto concatenates two CHW tensors along the channel axis into a
// caller-held buffer, so steady-state UNet forwards don't allocate for the
// skip connections.
func concatCInto(buf **tensor.Tensor, a, b *tensor.Tensor) *tensor.Tensor {
	if a.Dim(1) != b.Dim(1) || a.Dim(2) != b.Dim(2) {
		panic(fmt.Sprintf("defense: concat spatial mismatch %v vs %v", a.Shape(), b.Shape()))
	}
	ca, cb := a.Dim(0), b.Dim(0)
	h, w := a.Dim(1), a.Dim(2)
	out := sizedCHW(buf, ca+cb, h, w)
	copy(out.Data()[:ca*h*w], a.Data())
	copy(out.Data()[ca*h*w:], b.Data())
	return out
}

// splitCInto splits a gradient of a channel concatenation back into the
// two operands' gradients, held in caller-held buffers like concatCInto's.
func splitCInto(bufA, bufB **tensor.Tensor, g *tensor.Tensor, ca, cb int) (*tensor.Tensor, *tensor.Tensor) {
	h, w := g.Dim(1), g.Dim(2)
	ga, gb := sizedCHW(bufA, ca, h, w), sizedCHW(bufB, cb, h, w)
	copy(ga.Data(), g.Data()[:ca*h*w])
	copy(gb.Data(), g.Data()[ca*h*w:])
	return ga, gb
}

// sizedCHW returns *buf, (re)allocated only when it is not c×h×w.
func sizedCHW(buf **tensor.Tensor, c, h, w int) *tensor.Tensor {
	if *buf == nil || !(*buf).ShapeEq(c, h, w) {
		*buf = tensor.New(c, h, w)
	}
	return *buf
}
