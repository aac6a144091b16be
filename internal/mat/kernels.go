package mat

// Matrix-multiply kernels behind MulInto.
//
// The naive kernel is the i-k-j loop with a zero-skip on a's entries; it
// serves every product of the paper's own grid (buffer X = 5: repeating level
// of order 22, phase-graph blocks of order 2) and the small blocks of every
// other solve. The blocked kernel serves the dense level-sized operands of
// the larger buffers, whose order is 4X+2 for the exponential laws: 42 at
// X = 10, 82 at X = 20 and 202 at X = 50, the largest in sweep_large and in
// BenchmarkSolveLarge (84 for the phase-type laws at X = 10). It computes one
// output row per pass and unrolls the k loop 4-way, so each destination
// element is loaded and stored once per four accumulations instead of once
// per one, and it skips a group of four a entries that are all zero. The
// widest output row (202 float64s, 1.6 KiB) stays in L1 beside the four b
// rows it reads, so the output columns need no tiling.
//
// Determinism contract: for every output element, both kernels apply the
// products in strictly ascending k order with no reassociation, so they
// produce identical floating-point results (up to the sign of exact zeros).
// Tests in kernels_test.go pin this.

// blockedMulMin is the minimum inner dimension (a.cols) and output width
// (b.cols) at which the blocked kernel pays for its bookkeeping. The paper
// grid's order-22 operands stay below it on the naive kernel; the levels of
// buffers X ≥ 10 (order 42 and up) cross it.
const blockedMulMin = 24

// mulIntoNaive is the zero-skipping triple loop for small or sparse operands.
func mulIntoNaive(m, a, b *Matrix) {
	for i := 0; i < a.rows; i++ {
		dst := m.a[i*m.cols : (i+1)*m.cols]
		for k := range dst {
			dst[k] = 0
		}
		for k := 0; k < a.cols; k++ {
			aik := a.a[i*a.cols+k]
			if aik == 0 {
				continue
			}
			brow := b.a[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				dst[j] += aik * bv
			}
		}
	}
}

// mulIntoBlocked is the 4-way k-unrolled kernel for large dense operands.
func mulIntoBlocked(m, a, b *Matrix) {
	inner, width := a.cols, b.cols
	for i := 0; i < a.rows; i++ {
		dst := m.a[i*width : (i+1)*width]
		for j := range dst {
			dst[j] = 0
		}
		arow := a.a[i*inner : (i+1)*inner]
		k := 0
		for ; k+3 < inner; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.a[k*width : (k+1)*width]
			b1 := b.a[(k+1)*width : (k+2)*width]
			b2 := b.a[(k+2)*width : (k+3)*width]
			b3 := b.a[(k+3)*width : (k+4)*width]
			for j := range dst {
				// Four separate accumulations (not one summed expression)
				// keep the k-ascending rounding order of the naive kernel.
				t := dst[j]
				t += a0 * b0[j]
				t += a1 * b1[j]
				t += a2 * b2[j]
				t += a3 * b3[j]
				dst[j] = t
			}
		}
		for ; k < inner; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.a[k*width : (k+1)*width]
			for j, bv := range brow {
				dst[j] += aik * bv
			}
		}
	}
}
