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
	// closed lists the closed classes of A0+A1+A2 for the drift fallback.
	perm, start  []int
	identityPerm bool
	closed       [][]int

	// Sparse snapshots of A0/A2, built lazily for large sparse blocks (the
	// scaled-identity-like transition blocks of the paper's chains); nil when
	// the dense kernels are the better choice.
	sparseOnce sync.Once
	sA0, sA2   *mat.Sparse
}

// sparseMinOrder and sparseMaxDensity gate the CSR snapshots of A0/A2: below
// the order threshold the dense kernels win (and the snapshot allocations
// would show up in the small-model solve alloc budget); above the density
// threshold the sparse traversal saves nothing over the zero-skipping dense
// kernels.
const (
	sparseMinOrder   = 48
	sparseMaxDensity = 0.25
)

// sparseBlocks returns the CSR snapshots of A0 and A2 when they are worth
// using (large order, low density), building them at most once per process.
// Either result may be nil independently. The sparse kernels are bit-identical
// to the dense ones (pinned in internal/mat), so using a snapshot never
// changes results.
func (p *Process) sparseBlocks() (sA0, sA2 *mat.Sparse) {
	p.sparseOnce.Do(func() {
		if p.order < sparseMinOrder {
			return
		}
		if s := mat.NewSparse(p.a0); s.Density() <= sparseMaxDensity {
			p.sA0 = s
		}
		if s := mat.NewSparse(p.a2); s.Density() <= sparseMaxDensity {
			p.sA2 = s
		}
	})
	return p.sA0, p.sA2
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

// Drift returns the mean upward and downward drift rates (φA0e, φA2e) under
// the stationary phase distribution φ of the generator A = A0+A1+A2. The
// process is positive recurrent iff up < down. The result is computed once
// and cached, so Stable and R share a single StationaryCTMC solve.
func (p *Process) Drift() (up, down float64, err error) {
	p.driftOnce.Do(p.computeDrift)
	return p.driftUp, p.driftDown, p.driftErr
}

func (p *Process) computeDrift() {
	a := p.a0.AddMat(p.a1).AddInPlace(p.a2)
	var phi []float64
	if p.order == 1 {
		phi = []float64{1}
	} else {
		// Note: A may be reducible with a single recurrent class (e.g. the
		// paper's chain, where BG-serving phases are entered only from the
		// boundary). The LU-based solve handles that — transient phases get
		// zero mass — whereas GTH would reject the chain outright.
		var err error
		phi, err = markov.StationaryCTMC(a)
		if err != nil {
			// A with several closed classes (e.g. a chain whose repeating
			// region freezes part of the phase, as under the util-threshold
			// admission policy) has no unique stationary vector. The level
			// process can dwell arbitrarily long in any closed class, so the
			// QBD is positive recurrent iff every class drifts down; report
			// the drift of the binding class (smallest down-minus-up margin).
			up, down, cerr := p.classDrift(a)
			if cerr != nil {
				p.driftErr = fmt.Errorf("qbd: drift: %w", err)
				return
			}
			p.driftUp, p.driftDown = up, down
			return
		}
	}
	p.driftUp = mat.Dot(phi, p.a0.RowSums())
	p.driftDown = mat.Dot(phi, p.a2.RowSums())
}

// classDrift computes the per-closed-class drift of a reducible phase
// generator A and returns the (up, down) pair of the class with the smallest
// stability margin down − up. Closed classes are the strongly connected
// components of A's support graph with no edges leaving them (the sinks of
// phaseBlocks); restricted to such a class, A is an irreducible generator
// with its own stationary vector and therefore its own conditional drift.
func (p *Process) classDrift(a *mat.Matrix) (up, down float64, err error) {
	upRates := p.a0.RowSums()
	downRates := p.a2.RowSums()
	margin := math.Inf(1)
	for _, class := range p.closed {
		sub := mat.New(len(class), len(class))
		for i, gi := range class {
			for j, gj := range class {
				sub.Set(i, j, a.At(gi, gj))
			}
		}
		phi, serr := markov.StationaryCTMC(sub)
		if serr != nil {
			return 0, 0, serr
		}
		var cu, cd float64
		for i, gi := range class {
			cu += phi[i] * upRates[gi]
			cd += phi[i] * downRates[gi]
		}
		if cd-cu < margin {
			margin = cd - cu
			up, down = cu, cd
		}
	}
	return up, down, nil
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
	r, _, err := p.rWS(nil, nil)
	return r, err
}

// rWS is R with an optional workspace for every intermediate and an optional
// observer receiving the convergence trace plus a completion report (nil is
// valid for both; with a nil observer no reports are made). It also returns
// sp(R), the largest spectral radius of R's diagonal phase blocks.
func (p *Process) rWS(ws *mat.Workspace, o obs.Observer) (*mat.Matrix, float64, error) {
	stable, err := p.Stable()
	if err != nil {
		return nil, 0, err
	}
	if !stable {
		up, down, _ := p.Drift()
		return nil, 0, fmt.Errorf("%w: upward drift %.6g >= downward drift %.6g", ErrUnstable, up, down)
	}
	g, iters, residual, err := p.gWS(ws, o)
	if err != nil {
		return nil, 0, err
	}
	r, err := p.rFromG(g, ws)
	if err != nil {
		return nil, 0, err
	}
	sp := p.spectralRadius(r, ws)
	if o != nil {
		o.RSolved(iters, residual, sp)
	}
	return r, sp, nil
}

// rFromG forms R = A0·(−(A1 + A0·G))⁻¹ from G, which it releases to ws.
func (p *Process) rFromG(g *mat.Matrix, ws *mat.Workspace) (*mat.Matrix, error) {
	m := p.order
	sA0, _ := p.sparseBlocks()
	u := ws.MatrixUninit(m, m)
	if sA0 != nil {
		sA0.MulInto(u, g)
	} else {
		u.MulInto(p.a0, g)
	}
	u.AddInPlace(p.a1)
	u.Scale(-1)
	lu := ws.LU(m)
	if err := mat.FactorizeInto(lu, u); err != nil {
		ws.Release(g, u)
		ws.ReleaseLU(lu)
		return nil, fmt.Errorf("qbd: R: %w", err)
	}
	inv := ws.MatrixUninit(m, m)
	lu.InverseInto(inv)
	r := mat.New(m, m) // escapes into the Solution; never pooled
	if sA0 != nil {
		sA0.MulInto(r, inv)
	} else {
		r.MulInto(p.a0, inv)
	}
	ws.Release(g, u, inv)
	ws.ReleaseLU(lu)
	// Clamp round-off negatives: R is nonnegative in exact arithmetic.
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < r.Cols(); j++ {
			if v := r.At(i, j); v < 0 {
				if v < -1e-9 {
					return nil, fmt.Errorf("%w: R has negative entry %g", ErrNoConvergence, v)
				}
				r.Set(i, j, 0)
			}
		}
	}
	return r, nil
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
