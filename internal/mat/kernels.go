package mat

// Matrix-multiply kernels behind MulInto.
//
// The naive kernel is the original i-k-j loop with a zero-skip on a's
// entries; it wins on the small, structurally sparse generator blocks of the
// paper's default model (order ~20). The blocked kernel targets the larger
// dense blocks produced by the Extension and Scalability sweeps: it tiles the
// output columns so the destination row stays cache-hot, and unrolls the k
// loop 4-way so each destination element is loaded and stored once per four
// accumulations instead of once per one.
//
// Determinism contract: for every output element, both kernels apply the
// products in strictly ascending k order with no reassociation, so they
// produce identical floating-point results (up to the sign of exact zeros).
// Tests in kernels_test.go pin this.

const (
	// blockedMulMin is the minimum inner dimension (a.cols) and output width
	// (b.cols) at which the blocked kernel pays for its bookkeeping. The
	// paper-default model solves blocks of order ~22, which stay on the naive
	// kernel; the Extension (two-priority) and Scalability (X = 50) sweeps
	// cross the threshold.
	blockedMulMin = 24
	// mulBlockJ is the output-column tile width in float64s (2 KiB per row
	// tile), sized so a destination tile plus four source rows stay in L1.
	mulBlockJ = 256
)

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

// mulIntoBlocked is the column-tiled, 4-way k-unrolled kernel for large
// dense operands.
//
// Rows advance in pairs: the four b rows of each k quad are loaded once and
// feed both output rows, halving the streamed b traffic, and the two
// accumulator chains are independent, so the FP-add latency of one row hides
// behind the other. Each output row still applies its products in strictly
// ascending k order as four separate accumulations — pairing changes which
// row computes next, never the order within a row, so results are
// bit-identical to the single-row kernel (pinned by tests).
func mulIntoBlocked(m, a, b *Matrix) {
	rows, inner, width := a.rows, a.cols, b.cols
	for jt := 0; jt < width; jt += mulBlockJ {
		jhi := jt + mulBlockJ
		if jhi > width {
			jhi = width
		}
		i := 0
		for ; i+1 < rows; i += 2 {
			dst0 := m.a[i*width+jt : i*width+jhi]
			dst1 := m.a[(i+1)*width+jt : (i+1)*width+jhi]
			for j := range dst0 {
				dst0[j] = 0
				dst1[j] = 0
			}
			arow0 := a.a[i*inner : (i+1)*inner]
			arow1 := a.a[(i+1)*inner : (i+2)*inner]
			k := 0
			for ; k+3 < inner; k += 4 {
				a00, a01, a02, a03 := arow0[k], arow0[k+1], arow0[k+2], arow0[k+3]
				a10, a11, a12, a13 := arow1[k], arow1[k+1], arow1[k+2], arow1[k+3]
				zero0 := a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0
				zero1 := a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0
				if zero0 && zero1 {
					continue
				}
				b0 := b.a[k*width+jt : k*width+jhi]
				b1 := b.a[(k+1)*width+jt : (k+1)*width+jhi]
				b2 := b.a[(k+2)*width+jt : (k+2)*width+jhi]
				b3 := b.a[(k+3)*width+jt : (k+3)*width+jhi]
				switch {
				case zero1:
					for j := range dst0 {
						t := dst0[j]
						t += a00 * b0[j]
						t += a01 * b1[j]
						t += a02 * b2[j]
						t += a03 * b3[j]
						dst0[j] = t
					}
				case zero0:
					for j := range dst1 {
						t := dst1[j]
						t += a10 * b0[j]
						t += a11 * b1[j]
						t += a12 * b2[j]
						t += a13 * b3[j]
						dst1[j] = t
					}
				default:
					for j := range dst0 {
						t0 := dst0[j]
						t0 += a00 * b0[j]
						t0 += a01 * b1[j]
						t0 += a02 * b2[j]
						t0 += a03 * b3[j]
						dst0[j] = t0
						t1 := dst1[j]
						t1 += a10 * b0[j]
						t1 += a11 * b1[j]
						t1 += a12 * b2[j]
						t1 += a13 * b3[j]
						dst1[j] = t1
					}
				}
			}
			for ; k < inner; k++ {
				a0v, a1v := arow0[k], arow1[k]
				if a0v == 0 && a1v == 0 {
					continue
				}
				brow := b.a[k*width+jt : k*width+jhi]
				if a0v != 0 {
					for j, bv := range brow {
						dst0[j] += a0v * bv
					}
				}
				if a1v != 0 {
					for j, bv := range brow {
						dst1[j] += a1v * bv
					}
				}
			}
		}
		for ; i < rows; i++ {
			dst := m.a[i*width+jt : i*width+jhi]
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
				b0 := b.a[k*width+jt : k*width+jhi]
				b1 := b.a[(k+1)*width+jt : (k+1)*width+jhi]
				b2 := b.a[(k+2)*width+jt : (k+2)*width+jhi]
				b3 := b.a[(k+3)*width+jt : (k+3)*width+jhi]
				for j := range dst {
					// Four separate accumulations (not one summed
					// expression) keep the k-ascending rounding order of the
					// naive kernel.
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
				brow := b.a[k*width+jt : k*width+jhi]
				for j, bv := range brow {
					dst[j] += aik * bv
				}
			}
		}
	}
}
