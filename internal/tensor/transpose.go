package tensor

import "fmt"

// transposeBlock is the tile edge for the blocked transpose: 32×32 float32
// tiles keep both the source rows and destination rows inside L1.
const transposeBlock = 32

// transposeInto writes the transpose of the m×n matrix src into dst (n×m).
func transposeInto(dst, src []float32, m, n int) {
	for ib := 0; ib < m; ib += transposeBlock {
		imax := min(ib+transposeBlock, m)
		for jb := 0; jb < n; jb += transposeBlock {
			jmax := min(jb+transposeBlock, n)
			for i := ib; i < imax; i++ {
				row := src[i*n : (i+1)*n]
				for j := jb; j < jmax; j++ {
					dst[j*m+i] = row[j]
				}
			}
		}
	}
}

// Transpose2DInto writes the transpose of the 2-D tensor t into dst, which
// must have the swapped shape, reusing dst's storage.
//
//advlint:noalloc
func Transpose2DInto(dst, t *Tensor) {
	if t.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2DInto needs rank 2, got %v <- %v", dst.shape, t.shape))
	}
	if dst.shape[0] != t.shape[1] || dst.shape[1] != t.shape[0] {
		panic(fmt.Sprintf("tensor: Transpose2DInto shape %v <- %v", dst.shape, t.shape))
	}
	transposeInto(dst.data, t.data, t.shape[0], t.shape[1])
}
