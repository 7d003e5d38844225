package nn

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// benchNet is a DistNet-shaped stack: three stride-2 convolutions and a
// dense head over a 64×64 RGB frame.
func benchNet() (*Sequential, *tensor.Tensor) {
	rng := xrand.New(11)
	net := NewSequential(
		NewConv2D(rng, 3, 12, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewConv2D(rng, 12, 24, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewConv2D(rng, 24, 32, 3, 2, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 32*8*8, 48),
		NewLeakyReLU(0.1),
		NewLinear(rng, 48, 1),
	)
	x := tensor.New(3, 64, 64)
	for i := range x.Data() {
		x.Data()[i] = float32(i%29) * 0.03
	}
	return net, x
}

// BenchmarkSequentialForward times one workspace-backed inference.
func BenchmarkSequentialForward(b *testing.B) {
	net, x := benchNet()
	net.Forward(x, false) // size the workspace outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// BenchmarkSequentialForwardBatch8 times one batched inference over 8
// frames (one op = 8 frames); compare frames/s against
// BenchmarkSequentialForward to see the batching win.
func BenchmarkSequentialForwardBatch8(b *testing.B) {
	net, _ := benchNet()
	batch := tensor.New(8, 3, 64, 64)
	for i := range batch.Data() {
		batch.Data()[i] = float32(i%29) * 0.03
	}
	net.Forward(batch, false) // size the workspace outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(batch, false)
	}
}

// BenchmarkSequentialForwardBackward times one forward plus one full
// Backward: the input gradient and the parameter gradients (dW, db) of
// every layer.
func BenchmarkSequentialForwardBackward(b *testing.B) {
	net, x := benchNet()
	seed := tensor.New(1)
	seed.Data()[0] = 1
	net.Forward(x, false)
	net.Backward(seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
		net.ZeroGrad()
		net.Backward(seed)
	}
}
