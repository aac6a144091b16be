package mat

import (
	"fmt"
	"math"
)

// LU holds the LU factorization with partial pivoting of a square matrix:
// P·A = L·U, stored compactly in lu with the pivot sequence in piv. The
// scratch buffers make the *Into solvers allocation-free, so one LU reused
// via FactorizeInto amortizes to zero allocations per factorization.
type LU struct {
	lu      *Matrix
	piv     []int
	sign    int
	scratch []float64 // permutation staging for SolveVecInto
}

// NewLU returns an n×n factorization shell with all buffers preallocated,
// ready for FactorizeInto.
func NewLU(n int) *LU {
	return &LU{
		lu:      New(n, n),
		piv:     make([]int, n),
		sign:    1,
		scratch: make([]float64, n),
	}
}

// Factorize computes the LU factorization with partial pivoting of the square
// matrix a. It returns ErrSingular when a pivot underflows working precision.
func Factorize(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := FactorizeInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorizeInto factorizes a into f, reusing f's storage and pivot buffers
// when their size matches (and growing them otherwise). a is not modified.
// On ErrSingular the contents of f are unspecified but f remains reusable.
func FactorizeInto(f *LU, a *Matrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("%w: LU of %dx%d matrix", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	if f.lu == nil || f.lu.rows != n {
		f.lu = New(n, n)
		f.piv = make([]int, n)
		f.scratch = make([]float64, n)
	}
	copy(f.lu.a, a.a)
	lu, piv := f.lu, f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at or below the diagonal.
		p, mx := k, math.Abs(lu.a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.a[i*n+k]); v > mx {
				p, mx = i, v
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			ri, rk := lu.a[p*n:(p+1)*n], lu.a[k*n:(k+1)*n]
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.a[k*n+k]
		// Eliminate below the pivot four rows at a time: the pivot row rk
		// streams once per quad instead of once per row. Every updated element
		// receives exactly one update per pivot regardless of grouping, so
		// widening cannot change any result bits. Quads with a zero factor
		// fall back to per-row updates to keep the zero-skip.
		rk := lu.a[k*n+k+1 : (k+1)*n]
		i := k + 1
		for ; i+3 < n; i += 4 {
			fac0 := lu.a[i*n+k] / pivVal
			fac1 := lu.a[(i+1)*n+k] / pivVal
			fac2 := lu.a[(i+2)*n+k] / pivVal
			fac3 := lu.a[(i+3)*n+k] / pivVal
			lu.a[i*n+k] = fac0
			lu.a[(i+1)*n+k] = fac1
			lu.a[(i+2)*n+k] = fac2
			lu.a[(i+3)*n+k] = fac3
			ri0 := lu.a[i*n+k+1 : (i+1)*n]
			ri1 := lu.a[(i+1)*n+k+1 : (i+2)*n]
			ri2 := lu.a[(i+2)*n+k+1 : (i+3)*n]
			ri3 := lu.a[(i+3)*n+k+1 : (i+4)*n]
			if fac0 != 0 && fac1 != 0 && fac2 != 0 && fac3 != 0 {
				for j, v := range rk {
					ri0[j] -= fac0 * v
					ri1[j] -= fac1 * v
					ri2[j] -= fac2 * v
					ri3[j] -= fac3 * v
				}
				continue
			}
			for r, fac := range [4]float64{fac0, fac1, fac2, fac3} {
				if fac == 0 {
					continue
				}
				ri := [4][]float64{ri0, ri1, ri2, ri3}[r]
				for j, v := range rk {
					ri[j] -= fac * v
				}
			}
		}
		for ; i < n; i++ {
			fac := lu.a[i*n+k] / pivVal
			lu.a[i*n+k] = fac
			if fac == 0 {
				continue
			}
			ri := lu.a[i*n+k+1 : (i+1)*n]
			for j, v := range rk {
				ri[j] -= fac * v
			}
		}
	}
	f.sign = sign
	return nil
}

// SolveVec solves A·x = b for x, overwriting nothing; b is copied.
func (f *LU) SolveVec(b []float64) []float64 {
	x := make([]float64, f.lu.rows)
	return f.SolveVecInto(x, b)
}

// SolveVecInto solves A·x = b into dst and returns dst. dst may alias b.
func (f *LU) SolveVecInto(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	// Stage the permuted right-hand side through scratch so dst may alias b.
	s := f.ensureScratch()
	for i, p := range f.piv {
		s[i] = b[p]
	}
	copy(dst, s)
	// Forward substitution with unit lower-triangular L.
	for i := 1; i < n; i++ {
		row := f.lu.a[i*n : i*n+i]
		var s float64
		for j, v := range row {
			s += v * dst[j]
		}
		dst[i] -= s
	}
	// Back substitution with U, accumulating in descending j order — the
	// direction the row-paired tile kernel shares its streamed x rows in, so
	// vector and tiled solves stay bit-identical.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.a[i*n : (i+1)*n]
		s := dst[i]
		for j := n - 1; j > i; j-- {
			s -= row[j] * dst[j]
		}
		dst[i] = s / row[i]
	}
	return dst
}

// SolveLeftInto solves the row-vector system x·A = b into dst and returns
// dst, where f is the factorization of A. dst may alias b. With P·A = L·U it
// solves z·U = b, then y·L = z, then scatters x = y·P; both substitutions walk
// the factor by rows, so no transpose is formed.
func (f *LU) SolveLeftInto(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	w := f.ensureScratch()
	copy(w, b)
	// z·U = b: z_i is final once the rows above it have been subtracted.
	for i := 0; i < n; i++ {
		row := f.lu.a[i*n : (i+1)*n]
		zi := w[i] / row[i]
		w[i] = zi
		if zi == 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			w[j] -= zi * row[j]
		}
	}
	// y·L = z with unit lower-triangular L, bottom row first.
	for i := n - 1; i > 0; i-- {
		yi := w[i]
		if yi == 0 {
			continue
		}
		for j, v := range f.lu.a[i*n : i*n+i] {
			w[j] -= yi * v
		}
	}
	for i, p := range f.piv {
		dst[p] = w[i]
	}
	return dst
}

// SolveMat solves A·X = B column by column and returns X.
func (f *LU) SolveMat(b *Matrix) *Matrix {
	x := New(f.lu.rows, b.cols)
	f.SolveMatInto(x, b)
	return x
}

// solveTileWidth is the number of right-hand-side columns the blocked
// substitution advances per pass. One pass reads each LU row once for the
// whole tile (instead of once per column), so the factor matrix streams
// through cache tileWidth× less often. 32 columns is a 256-byte tile row —
// four cache lines — which leaves room in L1 for the LU row being broadcast.
const solveTileWidth = 32

// substituteTile runs forward and back substitution on one column tile of the
// right-hand-side matrix x (already permuted), in place. Per column the
// arithmetic is exactly SolveVecInto's: the inner products accumulate into a
// separate accumulator — ascending j in the forward pass, descending j in the
// back pass, the directions that let each pass pair rows — so a tiled solve
// is bit-identical to a column-by-column solve. Like the blocked multiply
// kernel, the j loop advances four source rows per pass — as four separate
// in-order accumulations, never one reassociated sum — so the per-row slice
// and loop bookkeeping amortizes without changing any bits.
func (f *LU) substituteTile(x *Matrix, j0, j1 int) { f.substituteTileFrom(x, j0, j1, 0) }

// substituteTileFrom is substituteTile for a tile whose permuted right-hand
// side is known to be zero in every row above `start`. Rows i <= start keep
// their values (their forward results equal their inputs: all earlier y are
// zero), and every inner product skips the j < start terms, which are exact
// zeros — so the output is bit-identical to substituteTile, which is the
// start = 0 case. InverseInto passes the first pivot row that lands in the
// tile; for near-diagonal pivoting this removes about a third of the forward
// substitution work of a full inverse.
func (f *LU) substituteTileFrom(x *Matrix, j0, j1, start int) {
	n := f.lu.rows
	width := x.cols
	var acc, acc1 [solveTileWidth]float64
	t := j1 - j0
	// Forward substitution with unit lower-triangular L. Rows advance in
	// pairs (i, i+1): the shared prefix j < i streams each x row once for
	// both accumulator chains; row i then finishes, and row i+1 applies its
	// j = i term — the last index of its ascending-j sequence — against the
	// freshly solved x[i] before finishing. Quad grouping and pairing only
	// change which row accumulates next, never the per-row ascending order,
	// so the result is bit-identical to the single-row substitution.
	i := start + 1
	for ; i+1 < n; i += 2 {
		row0 := f.lu.a[i*n : i*n+i]
		row1 := f.lu.a[(i+1)*n : (i+1)*n+i+1]
		for c := 0; c < t; c++ {
			acc[c] = 0
			acc1[c] = 0
		}
		j := start
		for ; j+3 < i; j += 4 {
			v00, v01, v02, v03 := row0[j], row0[j+1], row0[j+2], row0[j+3]
			v10, v11, v12, v13 := row1[j], row1[j+1], row1[j+2], row1[j+3]
			zero0 := v00 == 0 && v01 == 0 && v02 == 0 && v03 == 0
			zero1 := v10 == 0 && v11 == 0 && v12 == 0 && v13 == 0
			if zero0 && zero1 {
				continue
			}
			x0 := x.a[j*width+j0 : j*width+j1]
			x1 := x.a[(j+1)*width+j0 : (j+1)*width+j1]
			x2 := x.a[(j+2)*width+j0 : (j+2)*width+j1]
			x3 := x.a[(j+3)*width+j0 : (j+3)*width+j1]
			// Reslicing the accumulators to the tile length lets the compiler
			// drop the per-access bounds checks inside the hot loops.
			a0s, a1s := acc[:len(x0)], acc1[:len(x0)]
			switch {
			case zero1:
				for c := range x0 {
					a := a0s[c]
					a += v00 * x0[c]
					a += v01 * x1[c]
					a += v02 * x2[c]
					a += v03 * x3[c]
					a0s[c] = a
				}
			case zero0:
				for c := range x0 {
					a := a1s[c]
					a += v10 * x0[c]
					a += v11 * x1[c]
					a += v12 * x2[c]
					a += v13 * x3[c]
					a1s[c] = a
				}
			default:
				for c := range x0 {
					a0 := a0s[c]
					a0 += v00 * x0[c]
					a0 += v01 * x1[c]
					a0 += v02 * x2[c]
					a0 += v03 * x3[c]
					a0s[c] = a0
					a1 := a1s[c]
					a1 += v10 * x0[c]
					a1 += v11 * x1[c]
					a1 += v12 * x2[c]
					a1 += v13 * x3[c]
					a1s[c] = a1
				}
			}
		}
		for ; j < i; j++ {
			v0, v1 := row0[j], row1[j]
			if v0 == 0 && v1 == 0 {
				continue
			}
			xrow := x.a[j*width+j0 : j*width+j1]
			if v0 != 0 {
				for c, xv := range xrow {
					acc[c] += v0 * xv
				}
			}
			if v1 != 0 {
				for c, xv := range xrow {
					acc1[c] += v1 * xv
				}
			}
		}
		dst := x.a[i*width+j0 : i*width+j1]
		for c := range dst {
			dst[c] -= acc[c]
		}
		if v := row1[i]; v != 0 {
			for c, xv := range dst {
				acc1[c] += v * xv
			}
		}
		dst1 := x.a[(i+1)*width+j0 : (i+1)*width+j1]
		for c := range dst1 {
			dst1[c] -= acc1[c]
		}
	}
	for ; i < n; i++ {
		row := f.lu.a[i*n : i*n+i]
		for c := 0; c < t; c++ {
			acc[c] = 0
		}
		j := start
		for ; j+3 < i; j += 4 {
			v0, v1, v2, v3 := row[j], row[j+1], row[j+2], row[j+3]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			x0 := x.a[j*width+j0 : j*width+j1]
			x1 := x.a[(j+1)*width+j0 : (j+1)*width+j1]
			x2 := x.a[(j+2)*width+j0 : (j+2)*width+j1]
			x3 := x.a[(j+3)*width+j0 : (j+3)*width+j1]
			as := acc[:len(x0)]
			for c := range x0 {
				a := as[c]
				a += v0 * x0[c]
				a += v1 * x1[c]
				a += v2 * x2[c]
				a += v3 * x3[c]
				as[c] = a
			}
		}
		for ; j < i; j++ {
			v := row[j]
			if v == 0 {
				continue
			}
			xrow := x.a[j*width+j0 : j*width+j1]
			for c, xv := range xrow {
				acc[c] += v * xv
			}
		}
		dst := x.a[i*width+j0 : i*width+j1]
		for c := range dst {
			dst[c] -= acc[c]
		}
	}
	// Back substitution with U, in descending j order per row — the same
	// order as SolveVecInto. Rows retire in pairs (i, i−1): both share the
	// streamed x rows j > i; row i then finalizes, and row i−1 applies its
	// j = i term — the last index of its descending sequence — against the
	// freshly solved x[i] before finalizing. Quad grouping and pairing only
	// change which row accumulates next, never the per-row descending order,
	// so the result is bit-identical to the single-row substitution.
	i = n - 1
	for ; i-1 >= 0; i -= 2 {
		row1 := f.lu.a[i*n : (i+1)*n]
		row0 := f.lu.a[(i-1)*n : i*n]
		dst1 := x.a[i*width+j0 : i*width+j1]
		dst0 := x.a[(i-1)*width+j0 : (i-1)*width+j1]
		for c, xv := range dst1 {
			acc1[c] = xv
			acc[c] = dst0[c]
		}
		j := n - 1
		for ; j-3 > i; j -= 4 {
			v10, v11, v12, v13 := row1[j], row1[j-1], row1[j-2], row1[j-3]
			v00, v01, v02, v03 := row0[j], row0[j-1], row0[j-2], row0[j-3]
			zero1 := v10 == 0 && v11 == 0 && v12 == 0 && v13 == 0
			zero0 := v00 == 0 && v01 == 0 && v02 == 0 && v03 == 0
			if zero0 && zero1 {
				continue
			}
			x0 := x.a[j*width+j0 : j*width+j1]
			x1 := x.a[(j-1)*width+j0 : (j-1)*width+j1]
			x2 := x.a[(j-2)*width+j0 : (j-2)*width+j1]
			x3 := x.a[(j-3)*width+j0 : (j-3)*width+j1]
			a0s, a1s := acc[:len(x0)], acc1[:len(x0)]
			switch {
			case zero0:
				for c := range x0 {
					a := a1s[c]
					a -= v10 * x0[c]
					a -= v11 * x1[c]
					a -= v12 * x2[c]
					a -= v13 * x3[c]
					a1s[c] = a
				}
			case zero1:
				for c := range x0 {
					a := a0s[c]
					a -= v00 * x0[c]
					a -= v01 * x1[c]
					a -= v02 * x2[c]
					a -= v03 * x3[c]
					a0s[c] = a
				}
			default:
				for c := range x0 {
					a1 := a1s[c]
					a1 -= v10 * x0[c]
					a1 -= v11 * x1[c]
					a1 -= v12 * x2[c]
					a1 -= v13 * x3[c]
					a1s[c] = a1
					a0 := a0s[c]
					a0 -= v00 * x0[c]
					a0 -= v01 * x1[c]
					a0 -= v02 * x2[c]
					a0 -= v03 * x3[c]
					a0s[c] = a0
				}
			}
		}
		for ; j > i; j-- {
			v1, v0 := row1[j], row0[j]
			if v0 == 0 && v1 == 0 {
				continue
			}
			xrow := x.a[j*width+j0 : j*width+j1]
			if v1 != 0 {
				for c, xv := range xrow {
					acc1[c] -= v1 * xv
				}
			}
			if v0 != 0 {
				for c, xv := range xrow {
					acc[c] -= v0 * xv
				}
			}
		}
		piv1 := row1[i]
		for c := range dst1 {
			dst1[c] = acc1[c] / piv1
		}
		if v := row0[i]; v != 0 {
			for c, xv := range dst1 {
				acc[c] -= v * xv
			}
		}
		piv0 := row0[i-1]
		for c := range dst0 {
			dst0[c] = acc[c] / piv0
		}
	}
	if i == 0 {
		row := f.lu.a[0:n]
		dst := x.a[j0:j1]
		for c, xv := range dst {
			acc[c] = xv
		}
		j := n - 1
		for ; j-3 > 0; j -= 4 {
			v0, v1, v2, v3 := row[j], row[j-1], row[j-2], row[j-3]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			x0 := x.a[j*width+j0 : j*width+j1]
			x1 := x.a[(j-1)*width+j0 : (j-1)*width+j1]
			x2 := x.a[(j-2)*width+j0 : (j-2)*width+j1]
			x3 := x.a[(j-3)*width+j0 : (j-3)*width+j1]
			as := acc[:len(x0)]
			for c := range x0 {
				a := as[c]
				a -= v0 * x0[c]
				a -= v1 * x1[c]
				a -= v2 * x2[c]
				a -= v3 * x3[c]
				as[c] = a
			}
		}
		for ; j > 0; j-- {
			v := row[j]
			if v == 0 {
				continue
			}
			xrow := x.a[j*width+j0 : j*width+j1]
			for c, xv := range xrow {
				acc[c] -= v * xv
			}
		}
		piv := row[0]
		for c := range dst {
			dst[c] = acc[c] / piv
		}
	}
}

// SolveMatInto solves A·X = B into dst and returns dst. dst must not alias b.
// The substitution runs over column tiles of the right-hand side — same
// per-column arithmetic as SolveVecInto (bit-identical results, pinned by
// tests), but each LU row is read once per tile instead of once per column.
func (f *LU) SolveMatInto(dst, b *Matrix) *Matrix {
	n := f.lu.rows
	if b.rows != n || dst.rows != n || dst.cols != b.cols {
		panic(ErrShape)
	}
	// Stage the row permutation: dst = P·B.
	for i, p := range f.piv {
		copy(dst.a[i*dst.cols:(i+1)*dst.cols], b.a[p*b.cols:(p+1)*b.cols])
	}
	for j0 := 0; j0 < dst.cols; j0 += solveTileWidth {
		j1 := j0 + solveTileWidth
		if j1 > dst.cols {
			j1 = dst.cols
		}
		f.substituteTile(dst, j0, j1)
	}
	return dst
}

// InverseInto writes A⁻¹ into dst, where f is the factorization of A, without
// allocating (beyond one-time growth of f's scratch buffers). dst must be
// n×n. Like SolveMatInto it substitutes over column tiles; the results are
// bit-identical to solving the identity column by column.
func (f *LU) InverseInto(dst *Matrix) *Matrix {
	n := f.lu.rows
	if dst.rows != n || dst.cols != n {
		panic(ErrShape)
	}
	// dst = P·I: row i of the permuted identity has a one in column piv[i].
	dst.Zero()
	for i, p := range f.piv {
		dst.a[i*n+p] = 1
	}
	for j0 := 0; j0 < n; j0 += solveTileWidth {
		j1 := j0 + solveTileWidth
		if j1 > n {
			j1 = n
		}
		// Every row of the permuted identity above the first pivot that
		// lands in this column tile is zero there, so the forward
		// substitution can begin at that row.
		start := 0
		for i, p := range f.piv {
			if p >= j0 && p < j1 {
				start = i
				break
			}
		}
		f.substituteTileFrom(dst, j0, j1, start)
	}
	return dst
}

func (f *LU) ensureScratch() []float64 {
	if len(f.scratch) != f.lu.rows {
		f.scratch = make([]float64, f.lu.rows)
	}
	return f.scratch
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	n := f.lu.rows
	d := float64(f.sign)
	for i := 0; i < n; i++ {
		d *= f.lu.a[i*n+i]
	}
	return d
}

// Solve solves the linear system a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

// SolveLeft solves the row-vector system x·a = b, i.e. aᵀ·xᵀ = bᵀ.
func SolveLeft(a *Matrix, b []float64) ([]float64, error) {
	return Solve(a.Transpose(), b)
}

// Inverse returns a⁻¹ or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	out := New(a.rows, a.rows)
	f.InverseInto(out)
	return out, nil
}

// SpectralRadius estimates the spectral radius of the entrywise-nonnegative
// matrix a by power iteration. For nonnegative matrices (the R and G matrices
// of QBD theory) the dominant eigenvalue is real and nonnegative, so power
// iteration converges; tol controls the relative change stopping criterion.
func SpectralRadius(a *Matrix, tol float64, maxIter int) float64 {
	n := a.rows
	if n == 0 {
		return 0
	}
	if n != a.cols {
		panic(ErrShape)
	}
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	prev := 0.0
	for it := 0; it < maxIter; it++ {
		a.MulVecInto(y, x)
		var norm float64
		for _, v := range y {
			if av := math.Abs(v); av > norm {
				norm = av
			}
		}
		if norm == 0 {
			return 0
		}
		for i := range y {
			y[i] /= norm
		}
		x, y = y, x
		if it > 0 && math.Abs(norm-prev) <= tol*math.Max(norm, 1e-300) {
			return norm
		}
		prev = norm
	}
	return prev
}

// Ones returns a length-n vector of ones.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Sum returns the sum of the entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// ScaleVec multiplies x by s in place and returns x.
func ScaleVec(x []float64, s float64) []float64 {
	for i := range x {
		x[i] *= s
	}
	return x
}
