// Package qbd solves Quasi-Birth-Death processes — continuous-time Markov
// chains whose generator is block tridiagonal with a repeating portion —
// using the matrix-geometric method of Neuts, the same method the paper uses
// for its foreground/background model. The minimal R comes from the
// cyclic-reduction algorithm of Bini and Meini, run on each strongly
// connected component of the phase graph (blocks.go); the logarithmic
// reduction the paper cites ([10]) survives only as a test oracle in package
// qbdtest.
//
// A QBD is described by the repeating blocks (A0, A1, A2): A0 carries the
// rates one level up, A2 one level down, and A1 the within-level rates
// including the negative diagonal. The stationary distribution of the
// repeating levels is matrix-geometric, π_{j+1} = π_j·R, where R is the
// minimal nonnegative solution of A0 + R·A1 + R²·A2 = 0.
//
// The solver hot loops run on preallocated working sets (mat.Workspace and
// the *Into kernels): the cyclic-reduction iteration performs zero heap
// allocations in steady state, pinned by regression tests.
package qbd

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/obs"
)

// ErrInvalid reports malformed QBD blocks.
var ErrInvalid = errors.New("qbd: invalid process")

// ErrUnstable reports a QBD whose drift condition fails (no stationary
// distribution).
var ErrUnstable = errors.New("qbd: process is not positive recurrent")

// ErrNoConvergence reports an iterative solver that did not converge.
var ErrNoConvergence = errors.New("qbd: iteration did not converge")

// Process holds the repeating blocks of a QBD.
type Process struct {
	a0, a1, a2 *mat.Matrix
	order      int

	// Drift is needed by Stable and the R error path; it is computed at most
	// once per process.
	driftOnce          sync.Once
	driftUp, driftDown float64
	driftErr           error

	// The phase blocks G and R are solved by (see blocks.go): perm lists
	// the phases block by block, block b spans perm[start[b]:start[b+1]],
	// and identityPerm reports that perm is the original phase order.
	// closed lists the closed classes of A0+A1+A2, which carry the drift.
	perm, start  []int
	identityPerm bool
	closed       [][]int

	// Sparse snapshot of A0, built lazily for a large sparse block (the
	// scaled-identity-like arrival blocks of the paper's chains); nil when
	// the dense kernels are the better choice.
	sparseOnce sync.Once
	sA0        *mat.Sparse
}

// sparseMinOrder and sparseMaxDensity gate the CSR snapshots of A0 and of
// the boundary's down blocks: below
// the order threshold the dense kernels win (and the snapshot allocations
// would show up in the small-model solve alloc budget); above the density
// threshold the sparse traversal saves nothing over the zero-skipping dense
// kernels.
const (
	sparseMinOrder   = 48
	sparseMaxDensity = 0.25
)

// sparseA0 returns the CSR snapshot of A0 when it is worth using (large
// order, low density), building it at most once per process, or nil. The
// sparse kernels are bit-identical to the dense ones (pinned in
// internal/mat), so using the snapshot never changes results.
func (p *Process) sparseA0() *mat.Sparse {
	p.sparseOnce.Do(func() {
		if p.order < sparseMinOrder {
			return
		}
		if s := mat.NewSparse(p.a0); s.Density() <= sparseMaxDensity {
			p.sA0 = s
		}
	})
	return p.sA0
}

// New validates the repeating blocks and returns the process. A0 and A2 must
// be entrywise nonnegative, A1 must have nonnegative off-diagonal entries,
// and A = A0+A1+A2 must be an irreducible generator. Blocks are validated in
// the fixed order A0, A1, A2, so the reported error is deterministic when
// several blocks are malformed.
func New(a0, a1, a2 *mat.Matrix) (*Process, error) {
	m := a0.Rows()
	blocks := []struct {
		name string
		m    *mat.Matrix
	}{{"A0", a0}, {"A1", a1}, {"A2", a2}}
	for _, b := range blocks {
		if b.m.Rows() != m || b.m.Cols() != m {
			return nil, fmt.Errorf("%w: %s is %dx%d, want %dx%d", ErrInvalid, b.name, b.m.Rows(), b.m.Cols(), m, m)
		}
		if !b.m.IsFinite() {
			return nil, fmt.Errorf("%w: %s has non-finite entries", ErrInvalid, b.name)
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if a0.At(i, j) < 0 || a2.At(i, j) < 0 {
				return nil, fmt.Errorf("%w: negative rate in A0/A2 at (%d,%d)", ErrInvalid, i, j)
			}
			if i != j && a1.At(i, j) < 0 {
				return nil, fmt.Errorf("%w: negative off-diagonal in A1 at (%d,%d)", ErrInvalid, i, j)
			}
		}
	}
	sum := a0.AddMat(a1).AddInPlace(a2)
	if err := markov.CheckGenerator(sum, 1e-8); err != nil {
		return nil, fmt.Errorf("%w: A0+A1+A2: %v", ErrInvalid, err)
	}
	p := &Process{a0: a0.Clone(), a1: a1.Clone(), a2: a2.Clone(), order: m}
	p.setBlocks(sum)
	return p, nil
}

// Order returns the per-level block size.
func (p *Process) Order() int { return p.order }

// A0 returns a copy of the up-transition block.
func (p *Process) A0() *mat.Matrix { return p.a0.Clone() }

// A1 returns a copy of the local block.
func (p *Process) A1() *mat.Matrix { return p.a1.Clone() }

// A2 returns a copy of the down-transition block.
func (p *Process) A2() *mat.Matrix { return p.a2.Clone() }

// Drift returns the mean upward and downward drift rates (φA0e, φA2e) of
// the level process, where φ is the stationary phase distribution of a
// closed class of A = A0+A1+A2. The process is positive recurrent iff
// up < down. The result is computed once and cached, so Stable and R share
// one StationaryCTMC solve per closed class of more than one phase.
func (p *Process) Drift() (up, down float64, err error) {
	p.driftOnce.Do(p.computeDrift)
	return p.driftUp, p.driftDown, p.driftErr
}

// computeDrift takes the drift from the closed classes of A, the sinks of
// phaseBlocks. Only they carry stationary mass: A may be reducible (in the
// paper's chain, BG-serving phases are entered only from the boundary),
// and its φ is then the closed class's φ padded with zeros on the transient
// phases. Restricted to a closed class, A is an irreducible generator with
// its own φ and so its own drift. A with several closed classes (a
// repeating region that freezes part of the phase, as under the
// util-threshold admission policy) has no unique φ; the level process can
// dwell arbitrarily long in any of them, so the QBD is positive recurrent
// iff every class drifts down, and the drift reported is that of the
// binding class (smallest down-minus-up margin). A's entries are read from
// the three blocks directly; no m×m sum is formed.
func (p *Process) computeDrift() {
	upRates := p.a0.RowSums()
	downRates := p.a2.RowSums()
	margin := math.Inf(1)
	for _, class := range p.closed {
		phi := []float64{1}
		if len(class) > 1 {
			sub := mat.New(len(class), len(class))
			for i, gi := range class {
				r0, r1, r2, row := p.a0.RowView(gi), p.a1.RowView(gi), p.a2.RowView(gi), sub.RowView(i)
				for j, gj := range class {
					row[j] = r0[gj] + r1[gj] + r2[gj]
				}
			}
			var err error
			if phi, err = markov.StationaryCTMC(sub); err != nil {
				p.driftErr = fmt.Errorf("qbd: drift: %w", err)
				return
			}
		}
		var up, down float64
		for i, gi := range class {
			up += phi[i] * upRates[gi]
			down += phi[i] * downRates[gi]
		}
		if down-up < margin {
			margin = down - up
			p.driftUp, p.driftDown = up, down
		}
	}
}

// Stable reports whether the QBD is positive recurrent (mean drift strictly
// downward).
func (p *Process) Stable() (bool, error) {
	up, down, err := p.Drift()
	if err != nil {
		return false, err
	}
	return up < down, nil
}

// R computes the rate matrix R, the minimal nonnegative solution of
// A0 + R·A1 + R²·A2 = 0, via R = A0·(−(A1 + A0·G))⁻¹. The spectral radius of
// R is < 1 exactly when the process is stable.
func (p *Process) R() (*mat.Matrix, error) {
	r, _, _, err := p.rWS(nil, nil)
	return r, err
}

// rWS is R with an optional workspace for every intermediate and an optional
// observer receiving the convergence trace plus a completion report (nil is
// valid for both; with a nil observer no reports are made). It also returns
// N = (−(A1 + A0·G))⁻¹, drawn from ws for the caller to release, and sp(R),
// the largest spectral radius of R's diagonal phase blocks.
func (p *Process) rWS(ws *mat.Workspace, o obs.Observer) (r, n *mat.Matrix, sp float64, err error) {
	stable, err := p.Stable()
	if err != nil {
		return nil, nil, 0, err
	}
	if !stable {
		up, down, _ := p.Drift()
		return nil, nil, 0, fmt.Errorf("%w: upward drift %.6g >= downward drift %.6g", ErrUnstable, up, down)
	}
	g, iters, residual, err := p.gWS(ws, o)
	if err != nil {
		return nil, nil, 0, err
	}
	if r, n, err = p.rFromG(g, ws); err != nil {
		return nil, nil, 0, err
	}
	sp = p.spectralRadius(r, ws)
	if o != nil {
		o.RSolved(iters, residual, sp)
	}
	return r, n, sp, nil
}

// rFromG forms R = A0·N with N = (−U)⁻¹, U = A1 + A0·G, from G, which it
// releases to ws. It returns N too, drawn from ws: U is the censored
// generator of the first repeating level, so the boundary fold starts from
// N instead of factoring A1 + R·A2 (equal to U, as R·A2 = A0·G).
func (p *Process) rFromG(g *mat.Matrix, ws *mat.Workspace) (r, inv *mat.Matrix, err error) {
	m := p.order
	sA0 := p.sparseA0()
	u := ws.MatrixUninit(m, m)
	if sA0 != nil {
		sA0.MulInto(u, g)
	} else {
		u.MulInto(p.a0, g)
	}
	u.AddInPlace(p.a1)
	inv, err = negInverse(u, ws)
	ws.Release(g, u)
	if err != nil {
		return nil, nil, fmt.Errorf("qbd: R: %w", err)
	}
	r = mat.New(m, m) // escapes into the Solution; never pooled
	if sA0 != nil {
		sA0.MulInto(r, inv)
	} else {
		r.MulInto(p.a0, inv)
	}
	// Clamp round-off negatives: R is nonnegative in exact arithmetic.
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < r.Cols(); j++ {
			if v := r.At(i, j); v < 0 {
				if v < -1e-9 {
					ws.Release(inv)
					return nil, nil, fmt.Errorf("%w: R has negative entry %g", ErrNoConvergence, v)
				}
				r.Set(i, j, 0)
			}
		}
	}
	return r, inv, nil
}

// negInverse returns (−s)⁻¹, drawn from ws.
func negInverse(s *mat.Matrix, ws *mat.Workspace) (*mat.Matrix, error) {
	n := s.Rows()
	neg := ws.MatrixUninit(n, n).ScaleInto(s, -1)
	lu := ws.LU(n)
	defer ws.ReleaseLU(lu)
	defer ws.Release(neg)
	if err := mat.FactorizeInto(lu, neg); err != nil {
		return nil, err
	}
	inv := ws.MatrixUninit(n, n)
	lu.InverseInto(inv)
	return inv, nil
}

// spectralRadius returns sp(R) as the largest sp(R_bb) over the diagonal
// phase blocks — R is block upper triangular, so its eigenvalues are theirs.
// Blocks of order one and two take the closed form; larger ones take power
// iteration on the block alone.
func (p *Process) spectralRadius(r *mat.Matrix, ws *mat.Workspace) float64 {
	sp := 0.0
	for b := 0; b+1 < len(p.start); b++ {
		ph := p.perm[p.start[b]:p.start[b+1]]
		var rho float64
		switch len(ph) {
		case 1:
			rho = r.At(ph[0], ph[0])
		case 2:
			// The eigenvalues of a nonnegative 2×2 block are real:
			// (a+d)/2 ± √(((a−d)/2)² + b·c).
			a, d := r.At(ph[0], ph[0]), r.At(ph[1], ph[1])
			h := (a - d) / 2
			rho = (a+d)/2 + math.Sqrt(h*h+r.At(ph[0], ph[1])*r.At(ph[1], ph[0]))
		default:
			sub := ws.MatrixUninit(len(ph), len(ph))
			for i, pi := range ph {
				row := sub.RowView(i)
				for j, pj := range ph {
					row[j] = r.At(pi, pj)
				}
			}
			rho = mat.SpectralRadius(sub, 1e-12, 10000)
			ws.Release(sub)
		}
		sp = max(sp, rho)
	}
	return sp
}
