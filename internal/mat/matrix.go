// Package mat implements the dense real linear algebra needed by the
// matrix-analytic machinery in this repository: matrix arithmetic, LU-based
// linear solves and inversion, Kronecker products, and spectral-radius
// estimation. It is deliberately small, allocation-conscious, and built only
// on the standard library.
//
// Matrices are dense, row-major, and indexed from zero. All operations either
// return fresh matrices or write into explicitly provided destinations; no
// operation aliases its inputs unless documented.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// ErrSingular is returned by factorizations and solvers when the input matrix
// is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	a          []float64
}

// mulCount counts matrix-matrix products process-wide; see MulCount.
var mulCount atomic.Int64

// MulCount returns the cumulative number of matrix-matrix products (Mul or
// MulInto calls) performed process-wide since start or the last
// ResetMulCount. It exists so tests can assert operation budgets on solver
// hot loops. Safe for concurrent use.
func MulCount() int64 { return mulCount.Load() }

// ResetMulCount zeroes the counter reported by MulCount.
func ResetMulCount() { mulCount.Store(0) }

// New returns a zero-valued rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix{rows: rows, cols: cols, a: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of rows. All rows must have equal
// length. The data is copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(r), c)
		}
		copy(m.a[i*c:(i+1)*c], r)
	}
	return m, nil
}

// MustFromRows is FromRows but panics on ragged input. It is intended for
// package-level literals and tests.
func MustFromRows(rows [][]float64) *Matrix {
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.a[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.a[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.a[i*m.cols+j] = v }

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) { m.a[i*m.cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.a, m.a)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	r := make([]float64, m.cols)
	copy(r, m.a[i*m.cols:(i+1)*m.cols])
	return r
}

// RowView returns row i as a slice aliasing m's storage: writes through it
// change m. It gives solvers outside this package allocation-free row
// access for the axpy loops of structured (block-triangular) products.
func (m *Matrix) RowView(i int) []float64 {
	return m.a[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Zero resets every entry of m to zero in place.
func (m *Matrix) Zero() {
	for i := range m.a {
		m.a[i] = 0
	}
}

// Scale multiplies every entry by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.a {
		m.a[i] *= s
	}
	return m
}

// AddMat returns m + n as a new matrix.
func (m *Matrix) AddMat(n *Matrix) *Matrix {
	if m.rows != n.rows || m.cols != n.cols {
		panic(ErrShape)
	}
	out := m.Clone()
	for i := range out.a {
		out.a[i] += n.a[i]
	}
	return out
}

// SubMat returns m − n as a new matrix.
func (m *Matrix) SubMat(n *Matrix) *Matrix {
	if m.rows != n.rows || m.cols != n.cols {
		panic(ErrShape)
	}
	out := m.Clone()
	for i := range out.a {
		out.a[i] -= n.a[i]
	}
	return out
}

// AddInPlace adds n into m in place and returns m.
func (m *Matrix) AddInPlace(n *Matrix) *Matrix {
	if m.rows != n.rows || m.cols != n.cols {
		panic(ErrShape)
	}
	for i := range m.a {
		m.a[i] += n.a[i]
	}
	return m
}

// SubInto sets m = a − b entrywise and returns m. The receiver may alias a
// and/or b.
func (m *Matrix) SubInto(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols || m.rows != a.rows || m.cols != a.cols {
		panic(ErrShape)
	}
	for i := range m.a {
		m.a[i] = a.a[i] - b.a[i]
	}
	return m
}

// ScaleInto sets m = s·a entrywise and returns m. The receiver may alias a.
func (m *Matrix) ScaleInto(a *Matrix, s float64) *Matrix {
	if m.rows != a.rows || m.cols != a.cols {
		panic(ErrShape)
	}
	for i := range m.a {
		m.a[i] = a.a[i] * s
	}
	return m
}

// CloneInto copies m into dst, which must have m's shape, and returns dst:
// Clone without the allocation.
func (m *Matrix) CloneInto(dst *Matrix) *Matrix {
	if m.rows != dst.rows || m.cols != dst.cols {
		panic(ErrShape)
	}
	copy(dst.a, m.a)
	return dst
}

// AddBlockAt adds src entrywise into the receiver at offset (ro, co):
// m[ro+i, co+j] += src[i, j]. Exact-zero entries of src are skipped, so the
// structurally sparse rate blocks of the chain builders (scaled identities,
// bands) cost only their nonzeros. The row-slice walk makes this the bulk
// replacement for per-element At/Add assembly loops.
func (m *Matrix) AddBlockAt(ro, co int, src *Matrix) {
	if ro < 0 || co < 0 || ro+src.rows > m.rows || co+src.cols > m.cols {
		panic(ErrShape)
	}
	for i := 0; i < src.rows; i++ {
		srow := src.a[i*src.cols : (i+1)*src.cols]
		drow := m.a[(ro+i)*m.cols+co : (ro+i)*m.cols+co+src.cols]
		for j, v := range srow {
			if v != 0 {
				drow[j] += v
			}
		}
	}
}

// Mul returns the matrix product m·n as a new matrix.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	out := New(m.rows, n.cols)
	out.MulInto(m, n)
	return out
}

// MulInto computes a·b into the receiver, which must have matching shape and
// must not alias a or b. Large products take a 4-way k-unrolled kernel (see
// kernels.go); small ones keep the zero-skipping naive kernel.
// Both paths apply the per-element additions in the same k order, so results
// are identical regardless of which kernel runs.
func (m *Matrix) MulInto(a, b *Matrix) {
	if a.cols != b.rows || m.rows != a.rows || m.cols != b.cols {
		panic(ErrShape)
	}
	mulCount.Add(1)
	if a.cols >= blockedMulMin && b.cols >= blockedMulMin {
		mulIntoBlocked(m, a, b)
		return
	}
	mulIntoNaive(m, a, b)
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.a[j*t.cols+i] = m.a[i*m.cols+j]
		}
	}
	return t
}

// VecMul returns the row-vector product x·m.
func (m *Matrix) VecMul(x []float64) []float64 {
	if len(x) != m.rows {
		panic(ErrShape)
	}
	out := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.a[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// MulVec returns the column-vector product m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.a[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// VecMulInto computes the row-vector product x·m into dst and returns dst.
// dst must not alias x.
func (m *Matrix) VecMulInto(dst, x []float64) []float64 {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(ErrShape)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.a[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			dst[j] += xi * v
		}
	}
	return dst
}

// MulVecInto computes the column-vector product m·x into dst and returns dst.
// dst must not alias x.
func (m *Matrix) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		row := m.a[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// RowSums returns the vector of row sums.
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.rows)
	return m.RowSumsInto(out)
}

// RowSumsInto writes the vector of row sums into dst and returns dst.
func (m *Matrix) RowSumsInto(dst []float64) []float64 {
	if len(dst) != m.rows {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.RowSum(i)
	}
	return dst
}

// RowSum returns the sum of row i without allocating.
func (m *Matrix) RowSum(i int) float64 {
	row := m.a[i*m.cols : (i+1)*m.cols]
	var s float64
	for _, v := range row {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute entry of m (zero for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.a {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// NormInf returns the maximum absolute row sum.
func (m *Matrix) NormInf() float64 {
	var mx float64
	for i := 0; i < m.rows; i++ {
		row := m.a[i*m.cols : (i+1)*m.cols]
		var s float64
		for _, v := range row {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Equalf reports whether m and n agree entrywise within tol.
func (m *Matrix) Equalf(n *Matrix, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.a {
		if math.Abs(m.a[i]-n.a[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every entry is finite (no NaN or ±Inf).
func (m *Matrix) IsFinite() bool {
	for _, v := range m.a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Kron returns the Kronecker product m ⊗ n.
func (m *Matrix) Kron(n *Matrix) *Matrix {
	out := New(m.rows*n.rows, m.cols*n.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			mij := m.a[i*m.cols+j]
			if mij == 0 {
				continue
			}
			for k := 0; k < n.rows; k++ {
				dst := out.a[(i*n.rows+k)*out.cols+j*n.cols : (i*n.rows+k)*out.cols+(j+1)*n.cols]
				src := n.a[k*n.cols : (k+1)*n.cols]
				for l, v := range src {
					dst[l] = mij * v
				}
			}
		}
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
