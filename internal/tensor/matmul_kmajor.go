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
// single-frame Conv2D/Linear forwards run on it (short-wide W·cols conv
// products with the output positions on the lanes, cols read in place
// from a padded input copy, and m=1 gemv shapes that the single-row
// assembly tail keeps on SIMD), and the backward drives it for the
// input-gradient products.
//
// Lane width is dispatched once at init — AVX-512 32- and 16-wide or AVX2
// 8-wide where the CPU supports them, SSE2 4-wide on baseline amd64, NEON
// 4-wide on arm64, a pure-Go lane kernel elsewhere or under
// the noasm build tag (see sgemm_amd64.go / sgemm_arm64.go /
// sgemm_noasm.go). Each rung comes in two forms: strided, where B row l
// starts l·n floats on, and tap-table, where it starts off[l] floats on —
// the indirect conv forward's in-place taps; the pure-Go kernel serves
// both. Column counts that are not a lane multiple stay on SIMD too: the
// leftover columns step down through the narrower lane widths, the last ≤3
// are one overlapping lane block, and only products narrower than 4
// columns run scalar.
//
// Above the parallelMinWork threshold the row dimension is sharded
// across the persistent worker pool (parallel.go): each worker computes a
// contiguous row range with this same serial driver, so parallelism is
// pure dispatch and the bits never depend on GOMAXPROCS. The conv forward
// enters through IndirectConvInto, whose shards multiply their own output
// rows through the tap table (laneBlocks), and the conv input gradient
// through MatMulCol2ImInto, whose shards multiply and fold back whole
// input channels.

// widest is the widest lane block the selected ladder rung computes: 32
// on AVX-512, 8 on AVX2 and the pure-Go kernel, 4 on SSE2 and NEON. Package
// init assigns it once from CPU features, together with the rung asmLanes
// dispatches to; it never changes after init, so kernel choice is
// CPU-gated only and can never vary with parallelism.
var widest = 8

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

// matMulKMajorSerial computes the whole m×n product on the calling
// goroutine: laneBlocks over all n strided columns.
func matMulKMajorSerial(c, a, bk []float32, m, k, n int) {
	laneBlocks(c, a, bk, nil, m, k, n, n)
}

// laneBlocks computes columns [0, w) of c = a·B (c has row stride n) and
// writes no other column. Row l of B's block at column j starts at
// b[j + l·n], or at b[j + off[l]] when a tap table is given (the indirect
// conv forward, whose b starts where its band of grid positions reads the
// padded input). It tiles the band into blocks of the widest lane width
// the selected ladder rung supports — 32 on AVX-512, 8 on AVX2 and the
// generic kernel, 4 on SSE2 and NEON — then steps down through the narrower
// widths to 4 (32 → 16 → 8 → 4 on AVX-512). The fewer than 4 columns left
// after that are finished by one more block, of the widest width the band
// holds, on the overlapping columns [w−bw, w): it recomputes columns
// already written, but every lane is an independent ascending-k dot with
// per-step rounding, so the rewrite stores the same bits, from the same
// goroutine, inside the band. Only bands narrower than 4 columns take the
// scalar kmajorScalar loop. All paths agree bit for bit, so the tiling is
// invisible in the results.
func laneBlocks(c, a, b []float32, off []int32, m, k, n, w int) {
	switch {
	case m == 0 || w <= 0:
		return
	case k == 0:
		for i := 0; i < m; i++ {
			clear(c[i*n : i*n+w])
		}
		return
	case w < 4:
		kmajorScalar(c, a, b, off, m, w, k, n)
		return
	}
	j := 0
	for bw := widest; bw >= 4; bw /= 2 {
		for ; j+bw <= w; j += bw {
			sgemmLanes(c[j:], a, b[j:], off, m, bw, k, n)
		}
	}
	if j < w {
		bw := widest
		for bw > w {
			bw /= 2
		}
		sgemmLanes(c[w-bw:], a, b[w-bw:], off, m, bw, k, n)
	}
}

// sgemmLanes is the single dispatch point for the lane kernels: it computes
// the w-column block at the start of c and b for every row of the product,
// through the strided or (off non-nil) table assembly kernel of the rung
// selected at init (asmLanes) when one exists for w, and the pure-Go lane
// kernel otherwise. w must be 32 or 16 (only when widest is 32), 8 or 4,
// and k > 0.
func sgemmLanes(c, a, b []float32, off []int32, m, w, k, n int) {
	var o *int32
	if off != nil {
		o = &off[0]
	}
	if !asmLanes(w, &a[0], &b[0], &c[0], m, k, n, o) {
		kmajorColsGeneric(c, a, b, off, m, w, k, n)
	}
}

// bRow is where row l of a lane block's B operand starts: l·n floats on
// for a strided operand, off[l] for a tap table.
func bRow(off []int32, l, n int) int {
	if off != nil {
		return int(off[l])
	}
	return l * n
}

// kmajorColsGeneric is the pure-Go mirror of the assembly kernels, strided
// and table forms in one: all m rows in blocks of 4 plus a single-row
// tail, the w-column block at the start of c and b. Each accumulator sums
// ascending l with per-step rounding — the lane semantics of the SIMD
// kernels, expressed scalar — so generic and assembly builds produce
// identical bits.
func kmajorColsGeneric(c, a, b []float32, off []int32, m, w, k, n int) {
	var acc [4 * 8]float32
	i := 0
	for ; i+3 < m; i += 4 {
		for z := range acc[:4*w] {
			acc[z] = 0
		}
		for l := 0; l < k; l++ {
			brow := b[bRow(off, l, n):][:w]
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
			copy(c[(i+r)*n:(i+r)*n+w], acc[r*w:(r+1)*w])
		}
	}
	for ; i < m; i++ {
		for z := range acc[:w] {
			acc[z] = 0
		}
		for l := 0; l < k; l++ {
			brow := b[bRow(off, l, n):][:w]
			a0 := a[i*k+l]
			for z, bv := range brow {
				acc[z] += float32(a0 * bv)
			}
		}
		copy(c[i*n:i*n+w], acc[:w])
	}
}

// kmajorScalar computes all m rows of the w ≤ 3 columns at the start of c
// and b, for bands narrower than one 4-column lane block (B row l starts
// as in kmajorColsGeneric). A row's columns are independent accumulators
// in the same ascending-l loop, so their add chains overlap instead of
// running one after another; each still sums its own products in
// ascending l with per-step rounding, exactly like the lane kernels.
func kmajorScalar(c, a, b []float32, off []int32, m, w, k, n int) {
	if w <= 0 {
		return
	}
	for i := 0; i < m; i++ {
		var s0, s1, s2 float32
		for l, av := range a[i*k : i*k+k] {
			br := b[bRow(off, l, n):][:w]
			s0 += float32(av * br[0])
			if w > 1 {
				s1 += float32(av * br[1])
			}
			if w > 2 {
				s2 += float32(av * br[2])
			}
		}
		ci := c[i*n : i*n+w]
		ci[0] = s0
		if w > 1 {
			ci[1] = s1
		}
		if w > 2 {
			ci[2] = s2
		}
	}
}
