package tensor

import "fmt"

// K-major matmul: dst = A·B with B supplied in k-major layout (k×n), the
// natural layout of an untransposed right operand. It never materialises a
// transpose; instead it vectorizes across output columns — each SIMD lane
// owns one output element and accumulates a[i][l]·b[l][j] in strictly
// ascending l with a separate float32 rounding per multiply and add,
// exactly like a scalar dot product. Every output element is therefore
// bit-identical to the naive triple loop the tests compare against, and
// the kernel choice remains a pure throughput decision.
//
// The pure-Go kernels below write each product as float32(a * b). Go may
// fuse a*b + c into one FMA with a single rounding (it does on arm64); the
// explicit conversion forbids that, so the generic rung and the scalar
// column tail keep the two roundings every assembly rung performs.
//
// This is the unified GEMM of the perception stack: the batched AND
// single-frame Conv2D/Linear forwards lower onto it (tall-skinny patch
// products, and m=1 gemv shapes that the single-row assembly tail keeps on
// SIMD), and the backward drives it for the input-gradient products.
// Lane width is dispatched once at init — AVX-512 16-wide or AVX2 8-wide
// where the CPU supports them, SSE2 4-wide on baseline amd64, NEON 4-wide
// on arm64, a pure-Go lane kernel elsewhere or under the noasm build tag
// (see sgemm_amd64.go / sgemm_arm64.go). Column counts that are not a
// lane multiple stay on SIMD too: the leftover columns are one overlapping
// lane block, and only products narrower than 4 columns run scalar.
//
// Above the parallelMinWork threshold the row dimension is sharded
// across the persistent worker pool (parallel.go): each worker computes a
// contiguous row range with this same serial driver, so parallelism is
// pure dispatch and the bits never depend on GOMAXPROCS. The conv forward
// enters through Im2RowMatMulInto, whose shards also lower their own
// patch rows, and the conv input gradient through MatMulCol2ImInto, whose
// shards multiply and fold back whole input channels.

// laneKernel is the signature of the assembly column-lane kernels:
// c[i][0:w] = Σ_l a[i][l]·bk[l][0:w] for i in [0,m), with bk and c
// pre-offset to the column block and a row stride of n floats.
type laneKernel func(a, bk, c *float32, m, k, n int)

// lanes16, lanes8 and lanes4 are the kernels the driver dispatches to for
// 16-, 8- and 4-column blocks. They stay nil (pure-Go fallback) under the
// noasm tag and on platforms without a matching rung; package init assigns
// them once from CPU features (amd64: SSE2 baseline, AVX2/AVX-512 probed;
// arm64: NEON 4-wide). They never change after init, so kernel choice is
// CPU-gated only and can never vary with parallelism.
var (
	lanes16 laneKernel
	lanes8  laneKernel
	lanes4  laneKernel
)

// kmajorKernelName names the selected widest lane kernel for diagnostics.
var kmajorKernelName = "generic"

// KMajorKernel reports which lane kernel MatMulKMajorInto dispatches to in
// this process: "avx512", "avx2", "sse2", "neon" or "generic" (pure Go —
// builds without a matching rung and the noasm tag). Every rung computes
// identical bits; the name is for benchmarks, bug reports and the perf
// gate's machine-match check.
func KMajorKernel() string { return kmajorKernelName }

// MatMulKMajorInto computes dst = A·B for A (m×k) and B (k×n) given in
// row-major (i.e. k-major for this product) layout, reusing dst's storage.
// dst must be m×n.
//
//advlint:noalloc
func MatMulKMajorInto(dst, a, bK *Tensor) {
	if a.Rank() != 2 || bK.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulKMajorInto needs rank-2 operands, got %v x %v", a.shape, bK.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n := bK.shape[1]
	if bK.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulKMajorInto shapes %v = %v x %v", dst.shape, a.shape, bK.shape))
	}
	matMulKMajor(dst.data, a.data, bK.data, m, k, n)
}

// matMulKMajor is the dispatch point every MatMulKMajorInto call funnels
// through: products past the shared work threshold (shardWorkers)
// row-shard across the persistent pool, everything else (small shapes,
// gemv, GOMAXPROCS=1) runs the serial driver directly. The shards
// reproduce the serial bits exactly, so this is a pure throughput
// decision.
func matMulKMajor(c, a, bk []float32, m, k, n int) {
	matMulKMajorParallel(c, a, bk, m, k, n, shardWorkers(m, k, n))
}

// matMulKMajorSerial tiles the product into the widest column blocks the
// selected ladder rung supports — 16 on AVX-512, 8 on AVX2/SSE2 and the
// generic kernel, 4 on NEON. Columns left over after the full blocks are
// finished by one more lane-kernel call on the overlapping block [n−w, n),
// w the widest rung with w ≤ n: it recomputes a few columns already
// written, but every lane is an independent ascending-k dot with per-step
// rounding, so the rewrite stores the same bits, from the same goroutine.
// Only products narrower than 4 columns take the scalar kmajorScalar loop.
// All paths agree bit for bit, so the tiling is invisible in the results.
func matMulKMajorSerial(c, a, bk []float32, m, k, n int) {
	switch {
	case m == 0:
		return
	case k == 0:
		clear(c[:m*n])
		return
	case n < 4:
		kmajorScalar(c, a, bk, 0, m, 0, n, k, n)
		return
	}
	j := 0
	if lanes16 != nil {
		for ; j+16 <= n; j += 16 {
			lanes16(&a[0], &bk[j], &c[j], m, k, n)
		}
	}
	if lanes8 != nil || lanes4 == nil {
		for ; j+8 <= n; j += 8 {
			sgemmLanes(c, a, bk, m, j, 8, k, n)
		}
	}
	for ; j+4 <= n; j += 4 {
		sgemmLanes(c, a, bk, m, j, 4, k, n)
	}
	if j == n {
		return
	}
	switch {
	case lanes16 != nil && n >= 16:
		lanes16(&a[0], &bk[n-16], &c[n-16], m, k, n)
	case (lanes8 != nil || lanes4 == nil) && n >= 8:
		sgemmLanes(c, a, bk, m, n-8, 8, k, n)
	default:
		sgemmLanes(c, a, bk, m, n-4, 4, k, n)
	}
}

// sgemmLanes is the single dispatch point for the lane kernels: it computes
// the w-column block starting at j0 for every row of the product, using the
// assembly kernel selected at init when one is available and the pure-Go
// lane kernel otherwise. w must be 4 or 8 and k > 0.
func sgemmLanes(c, a, bk []float32, m, j0, w, k, n int) {
	switch {
	case w == 8 && lanes8 != nil:
		lanes8(&a[0], &bk[j0], &c[j0], m, k, n)
	case w == 4 && lanes4 != nil:
		lanes4(&a[0], &bk[j0], &c[j0], m, k, n)
	default:
		kmajorColsGeneric(c, a, bk, 0, m, j0, w, k, n)
	}
}

// kmajorColsGeneric is the pure-Go mirror of the assembly kernels: rows
// [i0,i1) in blocks of 4 plus a single-row tail, a fixed block of w
// columns starting at j0. Each accumulator sums ascending l with per-step
// rounding — the lane semantics of the SIMD kernels, expressed scalar — so
// generic and assembly builds produce identical bits.
func kmajorColsGeneric(c, a, bk []float32, i0, i1, j0, w, k, n int) {
	var acc [4 * 8]float32
	i := i0
	for ; i+3 < i1; i += 4 {
		for z := range acc[:4*w] {
			acc[z] = 0
		}
		for l := 0; l < k; l++ {
			brow := bk[l*n+j0 : l*n+j0+w]
			a0 := a[(i+0)*k+l]
			a1 := a[(i+1)*k+l]
			a2 := a[(i+2)*k+l]
			a3 := a[(i+3)*k+l]
			for z, bv := range brow {
				acc[z] += float32(a0 * bv)
				acc[w+z] += float32(a1 * bv)
				acc[2*w+z] += float32(a2 * bv)
				acc[3*w+z] += float32(a3 * bv)
			}
		}
		for r := 0; r < 4; r++ {
			copy(c[(i+r)*n+j0:(i+r)*n+j0+w], acc[r*w:(r+1)*w])
		}
	}
	for ; i < i1; i++ {
		for z := range acc[:w] {
			acc[z] = 0
		}
		for l := 0; l < k; l++ {
			brow := bk[l*n+j0 : l*n+j0+w]
			a0 := a[i*k+l]
			for z, bv := range brow {
				acc[z] += float32(a0 * bv)
			}
		}
		copy(c[i*n+j0:i*n+j0+w], acc[:w])
	}
}

// kmajorScalar computes rows [i0,i1) × columns [j0,j1) for products
// narrower than one 4-column lane block (j1−j0 ≤ 3; bk is read
// column-strided). A row's columns are independent accumulators in the
// same ascending-l loop, so their add chains overlap instead of running
// one after another; each still sums its own products in ascending l with
// per-step rounding, exactly like the lane kernels.
func kmajorScalar(c, a, bk []float32, i0, i1, j0, j1, k, n int) {
	w := j1 - j0
	if w <= 0 {
		return
	}
	for i := i0; i < i1; i++ {
		var s0, s1, s2 float32
		for l, av := range a[i*k : i*k+k] {
			b := bk[l*n+j0 : l*n+j1]
			s0 += float32(av * b[0])
			if w > 1 {
				s1 += float32(av * b[1])
			}
			if w > 2 {
				s2 += float32(av * b[2])
			}
		}
		ci := c[i*n+j0 : i*n+j1]
		ci[0] = s0
		if w > 1 {
			ci[1] = s1
		}
		if w > 2 {
			ci[2] = s2
		}
	}
}
