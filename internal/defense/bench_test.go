package defense

import (
	"fmt"
	"testing"

	"repro/internal/imaging"
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
