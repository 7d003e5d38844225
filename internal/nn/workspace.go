package nn

import "repro/internal/tensor"

// Workspace owns the reusable scratch tensors of one model instance:
// tap-major conv lowerings, GEMM outputs, transposes, activation caches
// and gradient buffers. Layers request buffers keyed by (layer, name), or
// by name alone for scratch that layers share (Shared2); a buffer is
// allocated on the first Forward/Backward that needs it and reused on
// every later call with the same shape, which makes steady-state inference,
// training and attack gradient loops allocation-free.
//
// Ownership and thread-safety rules:
//
//   - A Workspace belongs to exactly one model instance (one Sequential and
//     the layers attached to it) and inherits the model's concurrency
//     contract: not safe for concurrent use. Sequential.Clone gives the
//     clone a fresh Workspace, so per-worker clones share no scratch.
//   - Tensors returned by Layer.Forward/Backward (and therefore by
//     Sequential.Forward/Backward and model wrappers such as
//     Regressor.DistanceGrad) live in the Workspace and stay valid only
//     until the model's next Forward/Backward call. Callers that retain an
//     output across calls must Clone it.
//   - Buffer contents are whatever the previous use left behind; a layer
//     must fully overwrite (or Zero) a buffer before reading it.
type Workspace struct {
	m      map[wsKey]*tensor.Tensor
	shared map[string]*sharedBuf
}

// sharedBuf is the buffer every owner of one shared name uses, and the
// views of it made so far, by shape.
type sharedBuf struct {
	data  []float32
	views map[[2]int]*tensor.Tensor
}

type wsKey struct {
	owner any
	name  string
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{m: make(map[wsKey]*tensor.Tensor), shared: make(map[string]*sharedBuf)}
}

// Tensor2, Tensor3 and Tensor4 return the scratch tensor registered under
// (owner, name), allocating or replacing it when the requested shape
// changed. The rank is in the signature rather than a variadic so the hot
// path — shape unchanged — materialises no shape slice and allocates
// nothing.

// Tensor2 returns a rank-2 scratch tensor of shape d0×d1.
func (w *Workspace) Tensor2(owner any, name string, d0, d1 int) *tensor.Tensor {
	k := wsKey{owner: owner, name: name}
	if t, ok := w.m[k]; ok && t.Rank() == 2 && t.Dim(0) == d0 && t.Dim(1) == d1 {
		return t
	}
	t := tensor.New(d0, d1)
	w.m[k] = t
	return t
}

// Shared2 returns a d0×d1 scratch tensor over the one buffer that every
// owner asking for name shares: the buffer grows to the largest size asked
// for and never shrinks, and each shape's view of it is made once. It
// holds only scratch that is dead once the caller returns — the conv
// input gradient's product and fold — so a model pays for its largest
// layer's, not the sum over its layers.
func (w *Workspace) Shared2(name string, d0, d1 int) *tensor.Tensor {
	b := w.shared[name]
	if b == nil {
		b = &sharedBuf{views: make(map[[2]int]*tensor.Tensor)}
		w.shared[name] = b
	}
	if t, ok := b.views[[2]int{d0, d1}]; ok {
		return t
	}
	if d0*d1 > len(b.data) {
		b.data = make([]float32, d0*d1)
		clear(b.views) // views of the old buffer
	}
	t := tensor.FromSlice(b.data[:d0*d1], d0, d1)
	b.views[[2]int{d0, d1}] = t
	return t
}

// Tensor3 returns a rank-3 scratch tensor of shape d0×d1×d2.
func (w *Workspace) Tensor3(owner any, name string, d0, d1, d2 int) *tensor.Tensor {
	k := wsKey{owner: owner, name: name}
	if t, ok := w.m[k]; ok && t.Rank() == 3 && t.Dim(0) == d0 && t.Dim(1) == d1 && t.Dim(2) == d2 {
		return t
	}
	t := tensor.New(d0, d1, d2)
	w.m[k] = t
	return t
}

// Tensor4 returns a rank-4 scratch tensor of shape d0×d1×d2×d3 (the
// batched [N,C,H,W] activations of the batch-first layer paths).
func (w *Workspace) Tensor4(owner any, name string, d0, d1, d2, d3 int) *tensor.Tensor {
	k := wsKey{owner: owner, name: name}
	if t, ok := w.m[k]; ok && t.Rank() == 4 && t.Dim(0) == d0 && t.Dim(1) == d1 && t.Dim(2) == d2 && t.Dim(3) == d3 {
		return t
	}
	t := tensor.New(d0, d1, d2, d3)
	w.m[k] = t
	return t
}

// TensorLike is Tensor with the shape taken from an existing tensor,
// avoiding the shape-copy allocation of Tensor.Shape().
func (w *Workspace) TensorLike(owner any, name string, like *tensor.Tensor) *tensor.Tensor {
	k := wsKey{owner: owner, name: name}
	if t, ok := w.m[k]; ok && t.SameShape(like) {
		return t
	}
	t := tensor.New(like.Shape()...)
	w.m[k] = t
	return t
}

// workspaceUser is implemented by layers that keep scratch in a model
// workspace; Sequential attaches its workspace to them at assembly time.
type workspaceUser interface {
	setWorkspace(*Workspace)
}

// scratch is embedded by layers to hold their workspace attachment. A layer
// used standalone (outside a Sequential) lazily creates a private
// workspace, so destination-passing reuse works there too.
type scratch struct {
	ws *Workspace
}

func (s *scratch) setWorkspace(w *Workspace) { s.ws = w }

func (s *scratch) workspace() *Workspace {
	if s.ws == nil {
		s.ws = NewWorkspace()
	}
	return s.ws
}

// transposeCache holds a layer's transposed weight matrix Wᵀ in the model
// workspace, keyed on the weight parameter's version: inference and attack
// loops, whose weights never move, transpose once and reuse it. Any weight
// mutation (optimizer step, param copy/load, finite-difference probe)
// bumps the version, and the next call rebuilds the matrix bit-identically.
// The zero value is an empty cache, which is what Clone gives a new layer.
type transposeCache struct {
	wT      *tensor.Tensor
	version uint64 // w.Version() the cache was built from
}

// of returns w.Value transposed, held in ws under (owner, "wT"); it
// transposes again only when w's version moved or the workspace handed
// out a different buffer (a new workspace or a reshaped weight).
func (tc *transposeCache) of(ws *Workspace, owner any, w *Param) *tensor.Tensor {
	wT := ws.Tensor2(owner, "wT", w.Value.Dim(1), w.Value.Dim(0))
	if wT != tc.wT || tc.version != w.Version() {
		tensor.Transpose2DInto(wT, w.Value)
		tc.wT, tc.version = wT, w.Version()
	}
	return wT
}

// viewCache memoises a reshaped view of a tensor between calls: steady-
// state Forward/Backward passes see the same backing buffer with the same
// shape every time, so the view is built once and reused instead of
// allocating a fresh header per call.
type viewCache struct {
	src  []float32
	view *tensor.Tensor
}

// sameBacking reports whether the cached view still wraps t's storage.
func (vc *viewCache) sameBacking(d []float32) bool {
	return vc.view != nil && len(vc.src) == len(d) && len(d) > 0 && &vc.src[0] == &d[0]
}

// of1 returns t viewed as a flat vector, reusing the cached view when t's
// backing array matches the previous call. Like the Workspace accessors the
// rank sits in the signature so the hit path materialises no shape slice.
func (vc *viewCache) of1(t *tensor.Tensor) *tensor.Tensor {
	d := t.Data()
	if vc.sameBacking(d) && vc.view.Rank() == 1 {
		return vc.view
	}
	vc.src = d
	vc.view = t.Reshape(len(d))
	return vc.view
}

// of2 returns t viewed as a d0×d1 matrix with the same memoisation.
func (vc *viewCache) of2(t *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	d := t.Data()
	if vc.sameBacking(d) && vc.view.Rank() == 2 && vc.view.Dim(0) == d0 && vc.view.Dim(1) == d1 {
		return vc.view
	}
	vc.src = d
	vc.view = t.Reshape(d0, d1)
	return vc.view
}

// ofShape returns t reshaped to an arbitrary cached shape slice (Flatten's
// backward restores whatever rank the forward input had). The slice is an
// existing field, so nothing is materialised per call.
func (vc *viewCache) ofShape(t *tensor.Tensor, shape []int) *tensor.Tensor {
	d := t.Data()
	if vc.sameBacking(d) && vc.view.ShapeEq(shape...) {
		return vc.view
	}
	vc.src = d
	vc.view = t.Reshape(shape...)
	return vc.view
}
