package qbd

import (
	"fmt"
	"time"

	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/obs"
)

// Boundary describes the level-dependent boundary portion of a QBD: levels
// 0..B with arbitrary (possibly growing) sizes, after which the repeating
// blocks (A0, A1, A2) of a Process take over at level B+1.
type Boundary struct {
	// Local[j] is the within-level generator block of boundary level j
	// (including the diagonal), j = 0..B.
	Local []*mat.Matrix
	// Up[j] carries the rates from boundary level j to level j+1, j = 0..B.
	// Up[B] leads into the first repeating level and must therefore have
	// Process.Order() columns.
	Up []*mat.Matrix
	// Down[j] carries the rates from boundary level j to level j−1, j = 1..B.
	// Down[0] is ignored and may be nil.
	Down []*mat.Matrix
	// RepDown carries the rates from the first repeating level (B+1) into
	// boundary level B. When nil, the repeating A2 is used, which requires
	// level B to have the repeating size.
	RepDown *mat.Matrix
}

// levels returns the number of boundary levels B+1.
func (b Boundary) levels() int { return len(b.Local) }

func (b Boundary) validate(p *Process) error {
	nb := b.levels()
	if nb == 0 {
		return fmt.Errorf("%w: boundary needs at least level 0", ErrInvalid)
	}
	if len(b.Up) != nb {
		return fmt.Errorf("%w: %d Up blocks for %d boundary levels", ErrInvalid, len(b.Up), nb)
	}
	if len(b.Down) != nb {
		return fmt.Errorf("%w: %d Down blocks for %d boundary levels", ErrInvalid, len(b.Down), nb)
	}
	for j := 0; j < nb; j++ {
		n := b.Local[j].Rows()
		if b.Local[j].Cols() != n {
			return fmt.Errorf("%w: Local[%d] is %dx%d", ErrInvalid, j, n, b.Local[j].Cols())
		}
		wantUpCols := p.Order()
		if j+1 < nb {
			wantUpCols = b.Local[j+1].Rows()
		}
		if b.Up[j].Rows() != n || b.Up[j].Cols() != wantUpCols {
			return fmt.Errorf("%w: Up[%d] is %dx%d, want %dx%d", ErrInvalid, j, b.Up[j].Rows(), b.Up[j].Cols(), n, wantUpCols)
		}
		if j > 0 {
			prev := b.Local[j-1].Rows()
			if b.Down[j] == nil || b.Down[j].Rows() != n || b.Down[j].Cols() != prev {
				return fmt.Errorf("%w: Down[%d] must be %dx%d", ErrInvalid, j, n, prev)
			}
		}
	}
	repDown := b.RepDown
	if repDown == nil {
		if b.Local[nb-1].Rows() != p.Order() {
			return fmt.Errorf("%w: implicit RepDown needs boundary level %d of size %d, got %d",
				ErrInvalid, nb-1, p.Order(), b.Local[nb-1].Rows())
		}
	} else if repDown.Rows() != p.Order() || repDown.Cols() != b.Local[nb-1].Rows() {
		return fmt.Errorf("%w: RepDown is %dx%d, want %dx%d", ErrInvalid,
			repDown.Rows(), repDown.Cols(), p.Order(), b.Local[nb-1].Rows())
	}
	return nil
}

// Solution is the stationary distribution of a QBD with boundary: explicit
// probability vectors for the boundary levels, the first repeating level, and
// the rate matrix R generating all further levels geometrically.
type Solution struct {
	// BoundaryPi[j] is π_j for boundary level j (j = 0..B).
	BoundaryPi [][]float64
	// RepPi is π_{B+1}, the first repeating level.
	RepPi []float64
	// R is the rate matrix: π_{B+1+k} = RepPi · R^k.
	R *mat.Matrix

	firstRep int     // index of the first repeating level (B+1)
	spR      float64 // sp(R), from R's diagonal phase blocks

	// Geometric-tail moment vectors, computed once at Solve time: every
	// metric assembled from the tail (core.maskedMass probes them per
	// masked weight) reads the cached copies instead of redoing the
	// matrix-power algebra.
	tailSum []float64 // Σ_k RepPi·R^k
	tailW   []float64 // Σ_k k·RepPi·R^k
	tailW2  []float64 // Σ_k k²·RepPi·R^k
}

// Solve computes the stationary distribution of the QBD with the given
// boundary by linear level reduction — block LU elimination on the block-
// tridiagonal balance equations, O(Σ n_j³) instead of a dense O((Σ n_j)³)
// global solve. It returns ErrUnstable for non-positive-recurrent processes.
//
// All scratch matrices — the cyclic-reduction working set, the per-level
// fold of the backward sweep, and the tail-moment algebra — come from one
// mat.Workspace owned by the call, so buffers freed by one stage are reused
// by the next instead of allocated fresh.
func Solve(b Boundary, p *Process) (*Solution, error) {
	return SolveObserved(b, p, nil)
}

// SolveObserved is Solve with an optional obs.Observer (nil is valid and
// reverts to the uninstrumented fast path — no clocks are read and no
// reports are made). With an observer attached it reports the R-solve and
// boundary-solve stage durations, the cyclic-reduction convergence
// trace, sp(R), and the workspace pool statistics of the whole solve.
func SolveObserved(b Boundary, p *Process, o obs.Observer) (*Solution, error) {
	if err := b.validate(p); err != nil {
		return nil, err
	}
	ws := mat.AcquireWorkspace()
	defer mat.ReleaseWorkspace(ws)
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	r, n, spR, err := p.rWS(ws, o)
	if o != nil {
		o.StageDone(obs.StageRSolve, time.Since(t0))
		defer func() {
			s := ws.Stats()
			o.WorkspaceStats(obs.WorkspaceStats{
				MatrixHits: s.MatrixHits, MatrixMisses: s.MatrixMisses,
				VectorHits: s.VectorHits, VectorMisses: s.VectorMisses,
				LUHits: s.LUHits, LUMisses: s.LUMisses,
			})
		}()
		t0 = time.Now()
		defer func() { o.StageDone(obs.StageBoundary, time.Since(t0)) }()
	}
	if err != nil {
		return nil, err
	}
	m := p.Order()
	// One factorization of I−R serves the mass of the tail and its moments:
	// every (I−R)⁻ᵏ they need is a row-vector solve.
	tailLU := ws.LU(m)
	{
		idMinusR := ws.MatrixUninit(m, m).ScaleInto(r, -1)
		for i := 0; i < m; i++ {
			idMinusR.Add(i, i, 1)
		}
		if err := mat.FactorizeInto(tailLU, idMinusR); err != nil {
			return nil, fmt.Errorf("qbd: (I−R) singular: %w", err)
		}
		ws.Release(idMinusR)
	}

	nb := b.levels()
	repDown := b.RepDown
	if repDown == nil {
		repDown = p.a2
	}

	// Backward sweep: fold each level's equation into the one below. The
	// censored top level is S_{B+1} = A1 + R·A2, which equals U = A1 + A0·G
	// (R·A2 = A0·G), so (−S_{B+1})⁻¹ is the N that R's step kept; every
	// lower level folds S_j = Local_j + Up_j·(−S_{j+1})⁻¹·Down_{j+1}. Each
	// folded level also yields the propagation matrix T_{j+1} =
	// Up_j·(−S_{j+1})⁻¹ used by the forward sweep π_{j+1} = π_j·T_{j+1}.
	// The fold ping-pongs workspace buffers: each level releases its fold
	// before acquiring the next, so same-shaped levels reuse the same
	// memory.
	prop := make([]*mat.Matrix, nb+1) // prop[j]: π_j = π_{j−1}·prop[j], j ≥ 1
	negInv := n
	var s *mat.Matrix
	for j := nb; j >= 1; j-- {
		if j < nb {
			if negInv, err = negInverse(s, ws); err != nil {
				return nil, fmt.Errorf("qbd: level reduction at %d: %w", j, err)
			}
			ws.Release(s)
		}
		up := b.Up[j-1]
		// Held until the forward sweep below has consumed it, then released.
		// Up is structurally sparse (one arrival block per phase group), so
		// the zero-skipping dense kernel makes this product cheap.
		prop[j] = ws.MatrixUninit(up.Rows(), negInv.Cols())
		prop[j].MulInto(up, negInv)
		ws.Release(negInv)
		down := repDown
		if j < nb {
			down = b.Down[j]
		}
		local := b.Local[j-1]
		s = ws.MatrixUninit(local.Rows(), local.Cols())
		// The fold T·Down is dense·sparse — Down carries one service block
		// per phase group — so the CSR right-multiply kernel turns the n³
		// product into O(n·nnz) when the block is big and sparse enough.
		if sd := sparseDown(down); sd != nil {
			sd.MulRightInto(s, prop[j])
		} else {
			s.MulInto(prop[j], down)
		}
		s.AddInPlace(local)
	}

	// π_0 spans the one-dimensional left null space of S_0, the generator
	// of the chain censored on level 0. GTH finds it without subtractions:
	// level 0 carries every BG count, and under a slowly modulated MMPP its
	// generator is nearly decomposable, where an LU null vector loses
	// digits. GTH reads only the off-diagonal rates, so the diagonal is
	// reset from them: the fold leaves row sums off zero by round-off
	// (about 1e-9 on email near util 0.8).
	for i := 0; i < s.Rows(); i++ {
		s.Set(i, i, 0)
		s.Set(i, i, -s.RowSum(i))
	}
	pi0, err := markov.StationaryCTMCGTH(s)
	if err != nil {
		return nil, fmt.Errorf("qbd: boundary level 0: %w", err)
	}
	ws.Release(s)

	// Forward sweep and global normalization. π_{j+1} = π_j·T_{j+1} is a
	// row-vector product, so no transposition is needed.
	sol := &Solution{R: r, firstRep: nb, spR: spR}
	sol.BoundaryPi = make([][]float64, nb)
	cur := pi0
	total := 0.0
	for j := 0; j < nb; j++ {
		sol.BoundaryPi[j] = cur
		total += mat.Sum(cur)
		next := make([]float64, prop[j+1].Cols()) // persists in the Solution
		cur = prop[j+1].VecMulInto(next, cur)
	}
	ws.Release(prop[1:]...)
	sol.RepPi = cur
	tail := tailLU.SolveLeftInto(ws.Vector(m), cur)
	total += mat.Sum(tail)
	ws.ReleaseVector(tail)
	if total <= 0 {
		return nil, fmt.Errorf("qbd: nonpositive boundary mass %g", total)
	}
	for j := range sol.BoundaryPi {
		sol.BoundaryPi[j] = clampProbs(mat.ScaleVec(sol.BoundaryPi[j], 1/total))
	}
	sol.RepPi = clampProbs(mat.ScaleVec(sol.RepPi, 1/total))
	sol.cacheTailMoments(tailLU, ws)
	ws.ReleaseLU(tailLU)
	return sol, nil
}

// sparseDown returns a CSR snapshot of a boundary down block when the sparse
// right-multiply kernel wins (large block, low density — the same gates as the
// repeating-block snapshots), or nil to keep the dense kernel. The sparse
// kernel is bit-identical to the dense one (pinned in internal/mat), so the
// choice never changes results.
func sparseDown(down *mat.Matrix) *mat.Sparse {
	if down.Rows() < sparseMinOrder {
		return nil
	}
	if s := mat.NewSparse(down); s.Density() <= sparseMaxDensity {
		return s
	}
	return nil
}

// cacheTailMoments precomputes the three geometric-tail moment vectors from
// R, RepPi and lu, the factorization of I−R: three row-vector solves give
// RepPi·(I−R)⁻¹, ⁻² and ⁻³, and R commutes with (I−R)⁻¹, so the weighted
// sums finish with products by R and by I+R. ws supplies the scratch
// vectors.
func (s *Solution) cacheTailMoments(lu *mat.LU, ws *mat.Workspace) {
	m := s.R.Rows()
	// Σ_k RepPi·R^k = RepPi·(I−R)⁻¹.
	s.tailSum = lu.SolveLeftInto(make([]float64, m), s.RepPi)

	// Σ_k k·RepPi·R^k = RepPi·(I−R)⁻²·R.
	v := lu.SolveLeftInto(ws.Vector(m), s.tailSum)
	s.tailW = s.R.VecMulInto(make([]float64, m), v)

	// Σ_k k²·RepPi·R^k = RepPi·(I−R)⁻³·R·(I+R).
	lu.SolveLeftInto(v, v)
	u := s.R.VecMulInto(ws.Vector(m), v)
	s.tailW2 = s.R.VecMulInto(make([]float64, m), u)
	for i, x := range u {
		s.tailW2[i] += x
	}
	ws.ReleaseVector(v, u)
}

// clampProbs zeroes tiny negative round-off in stationary masses.
func clampProbs(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v < 0 && v > -1e-10 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// FirstRepLevel returns the index of the first repeating level (B+1).
func (s *Solution) FirstRepLevel() int { return s.firstRep }

// LevelPi returns the stationary vector of an arbitrary level, computing
// RepPi·R^k on demand for repeating levels. The walk ping-pongs two buffers;
// π·R is a row-vector product, so no transposition happens.
func (s *Solution) LevelPi(level int) []float64 {
	if level < s.firstRep {
		out := make([]float64, len(s.BoundaryPi[level]))
		copy(out, s.BoundaryPi[level])
		return out
	}
	v := make([]float64, len(s.RepPi))
	copy(v, s.RepPi)
	if level == s.firstRep {
		return v
	}
	w := make([]float64, len(v))
	for k := s.firstRep; k < level; k++ {
		s.R.VecMulInto(w, v)
		v, w = w, v
	}
	return v
}

// TailSum returns Σ_{k≥0} RepPi·R^k = RepPi·(I−R)⁻¹, the total probability
// vector of all repeating levels by phase.
func (s *Solution) TailSum() []float64 { return copyVec(s.tailSum) }

// TailWeightedSum returns Σ_{k≥0} k·RepPi·R^k = RepPi·R·(I−R)⁻², used for
// first moments over the geometric tail.
func (s *Solution) TailWeightedSum() []float64 { return copyVec(s.tailW) }

// TailSquareWeightedSum returns Σ_{k≥0} k²·RepPi·R^k = RepPi·R(I+R)·(I−R)⁻³,
// used for second moments over the geometric tail.
func (s *Solution) TailSquareWeightedSum() []float64 { return copyVec(s.tailW2) }

func copyVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// SpectralRadius returns sp(R), the caudal characteristic of the tail: the
// largest spectral radius of R's diagonal phase blocks, computed once at
// Solve time.
func (s *Solution) SpectralRadius() float64 { return s.spR }

// TotalMass returns the total probability mass (1 up to numerical error).
func (s *Solution) TotalMass() float64 {
	total := 0.0
	for _, pi := range s.BoundaryPi {
		total += mat.Sum(pi)
	}
	return total + mat.Sum(s.tailSum)
}

// MeanLevel returns E[level] — for a queueing chain whose level counts
// customers, the mean number in system.
func (s *Solution) MeanLevel() float64 {
	var mean float64
	for j, pi := range s.BoundaryPi {
		mean += float64(j) * mat.Sum(pi)
	}
	mean += float64(s.firstRep) * mat.Sum(s.tailSum)
	mean += mat.Sum(s.tailW)
	return mean
}
