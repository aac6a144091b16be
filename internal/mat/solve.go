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
	scratch []float64 // permutation staging for SolveVecInto
}

// NewLU returns an n×n factorization shell with all buffers preallocated,
// ready for FactorizeInto.
func NewLU(n int) *LU {
	return &LU{
		lu:      New(n, n),
		piv:     make([]int, n),
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
	// order substituteTile subtracts in, so vector and tiled solves stay
	// bit-identical.
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
// arithmetic is exactly SolveVecInto's: the forward inner products accumulate
// in ascending j into a separate accumulator, and the back substitution
// subtracts in descending j, so a tiled solve is bit-identical to a
// column-by-column solve. Like the blocked multiply kernel, the j loop
// advances four source rows per pass — as four separate in-order
// accumulations, never one reassociated sum — so the per-row slice and loop
// bookkeeping amortizes without changing any bits, and a group of four zero
// factor entries is skipped.
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
	// Every tile row below is resliced to len(acc), so the compiler can prove
	// each access in the hot loops in bounds and drops the checks.
	var buf [solveTileWidth]float64
	acc := buf[:j1-j0]
	// Forward substitution with unit lower-triangular L.
	for i := start + 1; i < n; i++ {
		row := f.lu.a[i*n : i*n+i]
		for c := range acc {
			acc[c] = 0
		}
		j := start
		for ; j+3 < i; j += 4 {
			v0, v1, v2, v3 := row[j], row[j+1], row[j+2], row[j+3]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			x0 := x.a[j*width+j0:][:len(acc)]
			x1 := x.a[(j+1)*width+j0:][:len(acc)]
			x2 := x.a[(j+2)*width+j0:][:len(acc)]
			x3 := x.a[(j+3)*width+j0:][:len(acc)]
			for c := range acc {
				a := acc[c]
				a += v0 * x0[c]
				a += v1 * x1[c]
				a += v2 * x2[c]
				a += v3 * x3[c]
				acc[c] = a
			}
		}
		for ; j < i; j++ {
			v := row[j]
			if v == 0 {
				continue
			}
			for c, xv := range x.a[j*width+j0:][:len(acc)] {
				acc[c] += v * xv
			}
		}
		dst := x.a[i*width+j0:][:len(acc)]
		for c := range dst {
			dst[c] -= acc[c]
		}
	}
	// Back substitution with U, subtracting in descending j order per row.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.a[i*n : (i+1)*n]
		copy(acc, x.a[i*width+j0:][:len(acc)])
		j := n - 1
		for ; j-3 > i; j -= 4 {
			v0, v1, v2, v3 := row[j], row[j-1], row[j-2], row[j-3]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			x0 := x.a[j*width+j0:][:len(acc)]
			x1 := x.a[(j-1)*width+j0:][:len(acc)]
			x2 := x.a[(j-2)*width+j0:][:len(acc)]
			x3 := x.a[(j-3)*width+j0:][:len(acc)]
			for c := range acc {
				a := acc[c]
				a -= v0 * x0[c]
				a -= v1 * x1[c]
				a -= v2 * x2[c]
				a -= v3 * x3[c]
				acc[c] = a
			}
		}
		for ; j > i; j-- {
			v := row[j]
			if v == 0 {
				continue
			}
			for c, xv := range x.a[j*width+j0:][:len(acc)] {
				acc[c] -= v * xv
			}
		}
		piv := row[i]
		dst := x.a[i*width+j0:][:len(acc)]
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

// Solve solves the linear system a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

// SolveLeft solves the row-vector system x·a = b on a factorization of a
// itself (see SolveLeftInto), so no transpose is formed.
func SolveLeft(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveLeftInto(make([]float64, len(b)), b), nil
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
