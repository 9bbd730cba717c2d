// The cache-blocked transpose tiles behind the flat engine's m[j,i]
// pattern, and the blocked-recursive matmul split used above the size
// cutoff. Both run on the kernels.go contract through their callers
// (GenArrayFlat and MatMulExec).
package matrix

import "sync/atomic"

// kernelTransposeCount counts with-loops run through the transpose
// tiles; surfaced on driver /metrics as kernel_transpose_total.
var kernelTransposeCount atomic.Int64

// KernelOpStats returns how many with-loops ran as a cache-blocked
// transpose.
func KernelOpStats() (transpose int64) {
	return kernelTransposeCount.Load()
}

// transposeBlock is the tile edge of the transpose kernels: a
// transposeBlock² tile of each operand (8 KB at float64) stays
// cache-resident while it is read row-wise and written column-wise.
const transposeBlock = 32

// transposeTiles writes dst[j*rows+i] = src[i*cols+j] for the row band
// [rlo, rhi), tile by tile.
func transposeTiles[T int64 | float64](dst, src []T, rlo, rhi, rows, cols int) {
	for i0 := rlo; i0 < rhi; i0 += transposeBlock {
		i1 := i0 + transposeBlock
		if i1 > rhi {
			i1 = rhi
		}
		for j0 := 0; j0 < cols; j0 += transposeBlock {
			j1 := j0 + transposeBlock
			if j1 > cols {
				j1 = cols
			}
			for i := i0; i < i1; i++ {
				srow := src[i*cols+j0 : i*cols+j1]
				for jx, v := range srow {
					dst[(j0+jx)*rows+i] = v
				}
			}
		}
	}
}

// mmRecCutoff: a matmul whose k and n dimensions both exceed this
// enters the blocked-recursive split; below it the flat i-k-j kernel's
// k-blocking is already cache-sufficient.
const mmRecCutoff = 512

// mmRecBase is the sub-block edge at which recursion bottoms out into
// the leading-dimension i-k-j base kernel (a 256² float tile of each
// operand is 512 KB — L2-resident on current cores).
const mmRecBase = 256

// mmRec multiplies the sub-block dst[i0:i1, j0:j1] += a[i0:i1, k0:k1]
// × b[k0:k1, j0:j1] by halving the largest extent until every extent
// fits mmRecBase (cache-oblivious: every level's working set halves).
// dst rows must be cleared by the caller. k splits run sequentially —
// both halves accumulate into the same dst cells.
func mmRec[T int64 | float64](dst, a, b []T, i0, i1, k0, k1, j0, j1, lda, ldb, ldd int) {
	di, dk, dj := i1-i0, k1-k0, j1-j0
	if di <= mmRecBase && dk <= mmRecBase && dj <= mmRecBase {
		mmBase(dst, a, b, i0, i1, k0, k1, j0, j1, lda, ldb, ldd)
		return
	}
	switch {
	case di >= dk && di >= dj:
		mid := i0 + di/2
		mmRec(dst, a, b, i0, mid, k0, k1, j0, j1, lda, ldb, ldd)
		mmRec(dst, a, b, mid, i1, k0, k1, j0, j1, lda, ldb, ldd)
	case dj >= dk:
		mid := j0 + dj/2
		mmRec(dst, a, b, i0, i1, k0, k1, j0, mid, lda, ldb, ldd)
		mmRec(dst, a, b, i0, i1, k0, k1, mid, j1, lda, ldb, ldd)
	default:
		mid := k0 + dk/2
		mmRec(dst, a, b, i0, i1, k0, mid, j0, j1, lda, ldb, ldd)
		mmRec(dst, a, b, i0, i1, mid, k1, j0, j1, lda, ldb, ldd)
	}
}

// mmBase is the leading-dimension-aware i-k-j accumulation kernel the
// recursion bottoms out in (same loop order as mmFloat/mmInt, but over
// a sub-block and without clearing).
func mmBase[T int64 | float64](dst, a, b []T, i0, i1, k0, k1, j0, j1, lda, ldb, ldd int) {
	for kb := k0; kb < k1; kb += mmBlockK {
		ke := kb + mmBlockK
		if ke > k1 {
			ke = k1
		}
		for i := i0; i < i1; i++ {
			row := dst[i*ldd+j0 : i*ldd+j1]
			arow := a[i*lda+kb : i*lda+ke]
			for kx, av := range arow {
				brow := b[(kb+kx)*ldb+j0 : (kb+kx)*ldb+j1]
				for j, bv := range brow {
					row[j] += av * bv
				}
			}
		}
	}
}

// mmRecRows clears and computes output rows [rlo, rhi) through the
// recursive split; the entry point the row-parallel driver calls when
// k and n exceed mmRecCutoff.
func mmRecRows[T int64 | float64](dst, a, b []T, rlo, rhi, kk, n int) {
	for i := rlo; i < rhi; i++ {
		clear(dst[i*n : (i+1)*n])
	}
	mmRec(dst, a, b, rlo, rhi, 0, kk, 0, n, kk, n, n)
}
