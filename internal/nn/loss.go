package nn

import "repro/internal/tensor"

// MSE is the mean squared error ½·mean((pred-target)²); it returns the
// loss and its gradient (pred-target)/n with respect to the prediction,
// ready to feed into Sequential.Backward. Averaging over elements keeps
// the gradient magnitude insensitive to output size.
func MSE(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := pred.Sub(target)
	n := float64(grad.Len())
	var loss float64
	for _, v := range grad.Data() {
		loss += 0.5 * float64(v) * float64(v)
	}
	grad.ScaleInPlace(float32(1.0 / n))
	return loss / n, grad
}
