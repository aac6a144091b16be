package mat

// Sparse is a compressed-sparse-row (CSR) snapshot of a matrix: the exact
// nonzero structure and values at capture time. The QBD solver uses it for
// the highly structured generator blocks (A0 and the boundary Down blocks
// are mostly scaled identities and block bands), whose products
// against dense iterates then cost O(nnz·n) instead of O(n³).
//
// Determinism contract: both multiply kernels apply the per-output-element
// additions in strictly ascending inner (k) order, skipping only products
// whose sparse factor entry is exactly zero. Adding a product with a zero
// factor cannot change a finite accumulation (the accumulator never holds
// −0.0: it starts at +0.0 and round-to-nearest addition never produces −0.0
// from distinct operands), so for the finite matrices the solver handles the
// results are bit-identical to the dense zero-skipping kernel — pinned by
// straddle tests in sparse_test.go.
type Sparse struct {
	rows, cols int
	rowStart   []int // index into colIdx/val; len rows+1
	colIdx     []int
	val        []float64
}

// NewSparse captures the nonzero structure and values of m. Entries equal to
// zero (including −0.0) are dropped.
func NewSparse(m *Matrix) *Sparse {
	nnz := 0
	for _, v := range m.a {
		if v != 0 {
			nnz++
		}
	}
	s := &Sparse{
		rows:     m.rows,
		cols:     m.cols,
		rowStart: make([]int, m.rows+1),
		colIdx:   make([]int, 0, nnz),
		val:      make([]float64, 0, nnz),
	}
	for i := 0; i < m.rows; i++ {
		row := m.a[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			if v != 0 {
				s.colIdx = append(s.colIdx, j)
				s.val = append(s.val, v)
			}
		}
		s.rowStart[i+1] = len(s.colIdx)
	}
	return s
}

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored nonzero entries.
func (s *Sparse) NNZ() int { return len(s.val) }

// Density returns the nonzero fraction, in [0, 1].
func (s *Sparse) Density() float64 {
	if s.rows*s.cols == 0 {
		return 0
	}
	return float64(len(s.val)) / float64(s.rows*s.cols)
}

// MulInto computes the sparse·dense product s·b into dst and returns dst.
// dst must not alias b. Per output element the additions run in ascending k
// order, exactly like the dense kernels, so results are bit-identical to
// dst.MulInto(dense(s), b).
func (s *Sparse) MulInto(dst, b *Matrix) *Matrix {
	if s.cols != b.rows || dst.rows != s.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	mulCount.Add(1)
	width := b.cols
	for i := 0; i < s.rows; i++ {
		out := dst.a[i*width : (i+1)*width]
		for k := range out {
			out[k] = 0
		}
		lo, hi := s.rowStart[i], s.rowStart[i+1]
		for p := lo; p < hi; p++ {
			v := s.val[p]
			brow := b.a[s.colIdx[p]*width : (s.colIdx[p]+1)*width]
			for j, bv := range brow {
				out[j] += v * bv
			}
		}
	}
	return dst
}

// MulRightInto computes the dense·sparse product a·s into dst and returns
// dst. dst must not alias a. The k loop ascends and skips zero entries of a
// exactly as the naive dense kernel does; within each k only s's stored
// nonzeros contribute, which cannot change a finite accumulation (see the
// type comment), so results are bit-identical to dst.MulInto(a, dense(s)).
func (s *Sparse) MulRightInto(dst, a *Matrix) *Matrix {
	if a.cols != s.rows || dst.rows != a.rows || dst.cols != s.cols {
		panic(ErrShape)
	}
	mulCount.Add(1)
	width := s.cols
	for i := 0; i < a.rows; i++ {
		out := dst.a[i*width : (i+1)*width]
		for k := range out {
			out[k] = 0
		}
		arow := a.a[i*a.cols : (i+1)*a.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			lo, hi := s.rowStart[k], s.rowStart[k+1]
			for p := lo; p < hi; p++ {
				out[s.colIdx[p]] += av * s.val[p]
			}
		}
	}
	return dst
}

// Dense expands the snapshot back into a dense matrix (for tests and
// debugging).
func (s *Sparse) Dense() *Matrix {
	m := New(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		for p := s.rowStart[i]; p < s.rowStart[i+1]; p++ {
			m.a[i*s.cols+s.colIdx[p]] = s.val[p]
		}
	}
	return m
}
