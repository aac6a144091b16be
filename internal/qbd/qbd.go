// Package qbd solves Quasi-Birth-Death processes — continuous-time Markov
// chains whose generator is block tridiagonal with a repeating portion —
// using the matrix-geometric method of Neuts, the same method the paper uses
// for its foreground/background model. The minimal R comes from the
// cyclic-reduction algorithm of Bini and Meini; the logarithmic reduction the
// paper cites ([10]) survives only as a test oracle in package qbdtest.
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

	// workers bounds the block-row fan-out of the multiplies inside the R
	// iteration; the zero value runs serially.
	workers int

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
	return &Process{a0: a0.Clone(), a1: a1.Clone(), a2: a2.Clone(), order: m}, nil
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
// components of A's support graph with no edges leaving them; restricted to
// such a class, A is an irreducible generator with its own stationary vector
// and therefore its own conditional drift.
func (p *Process) classDrift(a *mat.Matrix) (up, down float64, err error) {
	classes := closedClasses(a)
	if len(classes) == 0 {
		return 0, 0, fmt.Errorf("qbd: drift: no closed class in A")
	}
	upRates := p.a0.RowSums()
	downRates := p.a2.RowSums()
	margin := math.Inf(1)
	for _, class := range classes {
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

// closedClasses returns the strongly connected components of the support
// graph of generator a that have no outgoing edges (Tarjan's algorithm,
// iterative). States in open components are transient within a and carry no
// stationary mass.
func closedClasses(a *mat.Matrix) [][]int {
	n := a.Rows()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && a.At(i, j) > 0 {
				adj[i] = append(adj[i], j)
			}
		}
	}
	const unvisited = -1
	var (
		index   = make([]int, n)
		lowlink = make([]int, n)
		onStack = make([]bool, n)
		comp    = make([]int, n)
		stack   []int
		sccs    [][]int
		nextIdx int
		frameV  []int
		frameEi []int
	)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frameV = append(frameV[:0], root)
		frameEi = append(frameEi[:0], 0)
		index[root] = nextIdx
		lowlink[root] = nextIdx
		nextIdx++
		stack = append(stack, root)
		onStack[root] = true
		for len(frameV) > 0 {
			v := frameV[len(frameV)-1]
			ei := frameEi[len(frameEi)-1]
			if ei < len(adj[v]) {
				frameEi[len(frameEi)-1]++
				w := adj[v][ei]
				if index[w] == unvisited {
					index[w] = nextIdx
					lowlink[w] = nextIdx
					nextIdx++
					stack = append(stack, w)
					onStack[w] = true
					frameV = append(frameV, w)
					frameEi = append(frameEi, 0)
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			frameV = frameV[:len(frameV)-1]
			frameEi = frameEi[:len(frameEi)-1]
			if len(frameV) > 0 {
				if parent := frameV[len(frameV)-1]; lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(sccs)
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	var closed [][]int
	for ci, scc := range sccs {
		open := false
		for _, v := range scc {
			for _, w := range adj[v] {
				if comp[w] != ci {
					open = true
					break
				}
			}
			if open {
				break
			}
		}
		if !open {
			closed = append(closed, scc)
		}
	}
	return closed
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

// gWS computes the first-passage matrix G — entry (i,j) is the probability
// that the process, started in phase i of level n+1, first enters level n in
// phase j — by cyclic reduction on the uniformized chain. ws optionally
// supplies the reduction's scratch buffers and o optionally receives the
// per-iteration convergence trace (nil is valid for both). It also returns
// the iteration count and the final residual for convergence reporting.
func (p *Process) gWS(ws *mat.Workspace, o obs.Observer) (*mat.Matrix, int, float64, error) {
	// Uniformize: the diagonal lives in A1.
	theta := 0.0
	for i := 0; i < p.order; i++ {
		if d := -p.a1.At(i, i); d > theta {
			theta = d
		}
	}
	if theta == 0 {
		return nil, 0, 0, fmt.Errorf("%w: zero generator", ErrInvalid)
	}
	theta *= 1 + 1e-12
	m := p.order
	b0 := ws.MatrixUninit(m, m).ScaleInto(p.a0, 1/theta)
	b1 := ws.MatrixUninit(m, m).ScaleInto(p.a1, 1/theta)
	for i := 0; i < m; i++ {
		b1.Add(i, i, 1)
	}
	b2 := ws.MatrixUninit(m, m).ScaleInto(p.a2, 1/theta)
	g, iters, residual, err := cyclicReductionObs(b0, b1, b2, ws, o, p.workers)
	ws.Release(b0, b1, b2)
	return g, iters, residual, err
}

// R computes the rate matrix R, the minimal nonnegative solution of
// A0 + R·A1 + R²·A2 = 0, via R = A0·(−(A1 + A0·G))⁻¹. The spectral radius of
// R is < 1 exactly when the process is stable.
func (p *Process) R() (*mat.Matrix, error) { return p.rWS(nil, nil) }

// rWS is R with an optional workspace for every intermediate and an optional
// observer receiving the convergence trace plus a completion report with
// sp(R) (nil is valid for both; with a nil observer no timing or spectral-
// radius work runs).
func (p *Process) rWS(ws *mat.Workspace, o obs.Observer) (*mat.Matrix, error) {
	stable, err := p.Stable()
	if err != nil {
		return nil, err
	}
	if !stable {
		up, down, _ := p.Drift()
		return nil, fmt.Errorf("%w: upward drift %.6g >= downward drift %.6g", ErrUnstable, up, down)
	}
	g, iters, residual, err := p.gWS(ws, o)
	if err != nil {
		return nil, err
	}
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
	if o != nil {
		o.RSolved(iters, residual, mat.SpectralRadius(r, 1e-12, 10000))
	}
	return r, nil
}
