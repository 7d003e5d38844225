// Package nn implements the minimal deep-learning stack the reproduction
// needs: composable layers with explicit forward/backward passes, the MSE
// loss, the Adam optimizer and parameter serialization.
//
// Design notes:
//
//   - Layers are batch-first: every layer accepts a leading batch
//     dimension ([N,C,H,W] images, [N,In] vectors) and runs the whole batch
//     through one lowering and one GEMM instead of N small ones.
//     Single-sample CHW/flat inputs remain first-class and run the SAME
//     unified kernel path (one k-major SIMD GEMM; for Linear that is a
//     single-row gemv the assembly row tail keeps on SIMD). Batched,
//     single and pre-unification scalar results are all bit-identical:
//     every output element is the same ascending-index float32 dot
//     product, so both batching and the kernel ladder are purely
//     throughput decisions.
//   - Backward returns the gradient with respect to the layer input and
//     accumulates parameter gradients. Sequential.BackwardInput skips the
//     parameter-gradient work and returns the identical ∇x — the attack
//     primitive for FGSM/PGD/RP2/CAP, which never read weight gradients.
//     Batched Backward keeps per-sample input gradients bit-identical to
//     the single path; parameter gradients accumulate across the batch in
//     one pass, whose summation order differs from N sequential
//     single-sample backwards by float rounding only (the trainers run
//     this batched path).
//   - Layers cache activations between Forward and Backward, so a network
//     instance is not safe for concurrent use. Clone() produces an
//     independent copy (parameters deep-copied) for parallel evaluation.
//   - Forward and Backward outputs live in the model's Workspace and are
//     valid until the model's next Forward/Backward call; Clone a returned
//     tensor to retain it longer. See Workspace for the full rules.
package nn

import "repro/internal/tensor"

// Param is a trainable tensor together with its gradient accumulator.
//
// Param carries a version counter that layers use to cache expensive
// weight-derived scratch (the transposed weight matrix of Linear and
// Conv2D, a transposeCache) across calls: every code path that mutates
// Value — optimizer steps, DecodeParams, finite-difference probes, direct
// writes — must call MarkMutated afterwards, or a stale cache silently
// corrupts later forwards.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	version uint64
}

// newParam allocates a parameter and a zeroed gradient of the same shape.
func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...), version: 1}
}

// clone deep-copies the parameter (gradient reset to zero).
func (p *Param) clone() *Param {
	return &Param{Name: p.Name, Value: p.Value.Clone(), Grad: tensor.New(p.Value.Shape()...), version: 1}
}

// MarkMutated records that Value changed, invalidating any weight-derived
// cache a layer keyed on Version.
func (p *Param) MarkMutated() { p.version++ }

// Version returns the parameter's mutation counter. It starts positive, so
// a zero-valued cache tag never matches a live parameter.
func (p *Param) Version() uint64 { return p.version }

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for a single CHW (or flat) sample,
	// or for a batch carrying a leading N dimension ([N,C,H,W] / [N,In]).
	// train toggles train-time behaviour (e.g. dropout); inference and
	// attack gradient computation both use train=false.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Clone returns an independent deep copy of the layer.
	Clone() Layer
}

// Sequential chains layers; the output of layer i feeds layer i+1.
// It owns the model Workspace its layers keep their scratch tensors in, so
// steady-state Forward/Backward passes allocate nothing; see Workspace for
// the ownership and retention rules.
type Sequential struct {
	layers []Layer
	ws     *Workspace

	params []*Param // lazy cache; the layer list is fixed at construction
}

// NewSequential builds a sequential network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{layers: layers, ws: NewWorkspace()}
	s.attach(layers)
	return s
}

// attach points the given layers' scratch at this model's workspace.
func (s *Sequential) attach(layers []Layer) {
	for _, l := range layers {
		if u, ok := l.(workspaceUser); ok {
			u.setWorkspace(s.ws)
		}
	}
}

// Layers exposes the underlying layers (e.g. to split a backbone from a
// head for contrastive fine-tuning). The returned slice is a copy.
func (s *Sequential) Layers() []Layer {
	out := make([]Layer, len(s.layers))
	copy(out, s.layers)
	return out
}

// Forward runs the full network on one sample — or on a whole [N,...]
// batch, since every layer is batch-first.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates grad through all layers and returns the gradient with
// respect to the network input.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// inputGradLayer is implemented by layers with trainable parameters whose
// BackwardInput computes only the input gradient, skipping the parameter-
// gradient accumulation. The input gradient must be bit-identical to what
// Backward returns.
type inputGradLayer interface {
	BackwardInput(grad *tensor.Tensor) *tensor.Tensor
}

// BackwardInput propagates grad through all layers and returns the gradient
// with respect to the network input WITHOUT accumulating any parameter
// gradients. It is the attack primitive: FGSM, Auto-PGD, RP2 and CAP only
// consume the pixel gradient ∇x J, so the weight-gradient work of a full
// Backward (roughly a third of the pass on the conv stacks here) is
// skipped. The returned input gradient is bit-identical to Backward's.
func (s *Sequential) BackwardInput(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		if ig, ok := s.layers[i].(inputGradLayer); ok {
			grad = ig.BackwardInput(grad)
		} else {
			grad = s.layers[i].Backward(grad)
		}
	}
	return grad
}

// Params returns all trainable parameters in layer order. The slice is
// cached (grad-reset runs once per optimizer step, so rebuilding it there
// would be a steady-state allocation) and returned with no spare capacity,
// so callers appending to it always reallocate instead of writing into the
// cache.
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		n := 0
		for _, l := range s.layers {
			n += len(l.Params())
		}
		ps := make([]*Param, 0, n)
		for _, l := range s.layers {
			ps = append(ps, l.Params()...)
		}
		s.params = ps
	}
	return s.params
}

// ZeroGrad clears all accumulated parameter gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.Grad.Zero()
	}
}

// Clone returns an independent deep copy (separate parameters, activation
// caches and workspace), safe to use from another goroutine.
func (s *Sequential) Clone() *Sequential {
	ls := make([]Layer, len(s.layers))
	for i, l := range s.layers {
		ls[i] = l.Clone()
	}
	return NewSequential(ls...)
}
