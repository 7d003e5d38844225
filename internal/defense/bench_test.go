package defense

import (
	"fmt"
	"testing"

	"repro/internal/imaging"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// BenchmarkDiffPIRScaling times one DiffPIR restoration against input
// resolution and reverse-step count: the paper's §VI question is whether
// DiffPIR fits the 50 ms control period at a camera's resolution, not at
// the 64×64 frames the experiments render. The UNet is fully
// convolutional, so one fixed-seed, untrained prior runs at every size.
// Untrained weights make this a timing measurement only: nothing about
// restoration quality follows from it.
func BenchmarkDiffPIRScaling(b *testing.B) {
	d := NewDiffusion(xrand.New(1), DefaultDiffusionConfig())
	for _, res := range []int{64, 128, 256} {
		y := imaging.NewImage(3, res, res)
		rng := xrand.New(2)
		for i := range y.Pix {
			y.Pix[i] = rng.Float32()
		}
		dst := imaging.NewImage(3, res, res)
		for _, steps := range []int{8, 12} {
			b.Run(fmt.Sprintf("res=%d/steps=%d", res, steps), func(b *testing.B) {
				cfg := DefaultDiffPIRConfig()
				cfg.Steps = steps
				d.RestoreInto(dst, y, cfg) // size the scratch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.RestoreInto(dst, y, cfg)
				}
			})
		}
	}
}

// BenchmarkUNetTrainStep times one training step of the DiffPIR prior's
// noise predictor: forward plus backward of one 5×64×64 input (3 image
// channels and 2 timestep channels), with the parameter gradients
// cleared first, as Diffusion.Train runs it. The optimizer step is left
// out.
func BenchmarkUNetTrainStep(b *testing.B) {
	u := NewUNet(xrand.New(1), 5)
	x, grad := tensor.New(5, 64, 64), tensor.New(3, 64, 64)
	rng := xrand.New(2)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	grad.Fill(1e-3)
	step := func() {
		u.ZeroGrad()
		u.Forward(x, true)
		u.Backward(grad)
	}
	step() // size the workspaces
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
