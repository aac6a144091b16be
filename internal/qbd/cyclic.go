package qbd

import (
	"fmt"
	"math"

	"bgperf/internal/mat"
)

// MulBudget returns the exact number of MulCount-visible matrix products a
// convergent cyclic-reduction run performs over iters iterations — the op
// budget the regression tests pin so accidental extra products in the
// innermost solver loop fail fast. Each iteration performs four products (the
// shared up·S·down, down·S·up, and the two block squarings) and none run
// outside the loop: the final G assembly is a triangular solve, and LU
// factorizations and triangular solves are not counted.
func MulBudget(iters int) int64 { return int64(4 * iters) }

// crTol is the stopping threshold on min(‖up‖∞, ‖down‖∞). The vanishing
// iterate decays multiplicatively (quadratically in exact arithmetic, and
// rounding cannot stall a product of substochastic factors), so the
// threshold is always reached and overshooting it costs at most one cheap
// extra iteration. The truncation error of G is of the order of the last
// residual, so the threshold sits below the unit roundoff: a run stopped at
// 5e-15 leaves G entries about 70 ulps off.
const crTol = 1e-16

// maxCRIter bounds the iterations of one cyclic-reduction run.
const maxCRIter = 200

// crState is the preallocated working set of one cyclic-reduction run: the
// three block iterates, the censored-level accumulator, the two solve
// targets, a factorization scratch, a ping-pong buffer, and a reusable LU.
// After newCRState, step performs zero heap allocations (pinned by
// TestCyclicReductionStepZeroAlloc).
type crState struct {
	ws *mat.Workspace

	id      *mat.Matrix // I, fixed
	down    *mat.Matrix // A₋₁ iterate (level-down block)
	local   *mat.Matrix // A₀ iterate (within-level block)
	up      *mat.Matrix // A₁ iterate (level-up block)
	hat     *mat.Matrix // Â₀, the censored first-level accumulator
	t1, t2  *mat.Matrix // S·down, S·up with S = (I − local)⁻¹
	work    *mat.Matrix // I − local / I − hat factorization target
	scratch *mat.Matrix // product target / ping-pong partner
	lu      *mat.LU
	rowSums []float64

	// residual is min(‖up‖∞, ‖down‖∞) after the latest step — the quantity
	// the convergence trace reports. Which block vanishes identifies the
	// drift: up for recurrent chains, down for transient ones.
	residual float64
}

// newCRState acquires the working set for order-m blocks from ws (nil ws
// allocates directly).
func newCRState(m int, ws *mat.Workspace) *crState {
	return &crState{
		ws: ws,
		// Every buffer but the identity is fully overwritten before its first
		// read (start clones the inputs; the solve and product targets are
		// pure destinations), so the working set skips acquisition zeroing.
		id:      ws.Identity(m),
		down:    ws.MatrixUninit(m, m),
		local:   ws.MatrixUninit(m, m),
		up:      ws.MatrixUninit(m, m),
		hat:     ws.MatrixUninit(m, m),
		t1:      ws.MatrixUninit(m, m),
		t2:      ws.MatrixUninit(m, m),
		work:    ws.MatrixUninit(m, m),
		scratch: ws.MatrixUninit(m, m),
		lu:      ws.LU(m),
		rowSums: ws.Vector(m),
	}
}

// release hands every buffer back to the workspace.
func (s *crState) release() {
	s.ws.Release(s.id, s.down, s.local, s.up, s.hat, s.t1, s.t2, s.work, s.scratch)
	s.ws.ReleaseLU(s.lu)
	s.ws.ReleaseVector(s.rowSums)
}

// start copies the DTMC blocks (b0 up, b1 local, b2 down) into the iterates;
// the accumulator starts as the local block. The inputs are never written.
func (s *crState) start(b0, b1, b2 *mat.Matrix) {
	b2.CloneInto(s.down)
	b1.CloneInto(s.local)
	b0.CloneInto(s.up)
	b1.CloneInto(s.hat)
}

// step runs one cyclic-reduction iteration in place, with zero heap
// allocations. With S = (I − local)⁻¹ applied by two multi-RHS solves:
//
//	local' = local + up·S·down + down·S·up
//	hat'   = hat + up·S·down   (shares the up·S·down product with local')
//	down'  = down·S·down
//	up'    = up·S·up
//
// done reports convergence: the drift-determined iterate has vanished and
// the censored accumulator is final.
func (s *crState) step() (done bool, err error) {
	s.work.SubInto(s.id, s.local)
	if err := mat.FactorizeInto(s.lu, s.work); err != nil {
		return false, err
	}
	s.lu.SolveMatInto(s.t1, s.down)
	s.lu.SolveMatInto(s.t2, s.up)
	s.scratch.MulInto(s.up, s.t1) // up·S·down
	s.local.AddInPlace(s.scratch)
	s.hat.AddInPlace(s.scratch)
	s.scratch.MulInto(s.down, s.t2) // down·S·up
	s.local.AddInPlace(s.scratch)
	s.scratch.MulInto(s.down, s.t1) // down·S·down
	s.down, s.scratch = s.scratch, s.down
	s.scratch.MulInto(s.up, s.t2) // up·S·up
	s.up, s.scratch = s.scratch, s.up
	s.residual = math.Min(s.infNorm(s.down), s.infNorm(s.up))
	return s.residual < crTol, nil
}

// infNorm computes ‖m‖∞ (max absolute row sum) on the preallocated row-sum
// buffer.
func (s *crState) infNorm(m *mat.Matrix) float64 {
	norm := 0.0
	for _, rs := range m.RowSumsInto(s.rowSums) {
		if a := math.Abs(rs); a > norm {
			norm = a
		}
	}
	return norm
}

// cyclicReduction runs the Bini–Meini cyclic-reduction algorithm on the DTMC
// blocks (b0 up, b1 local, b2 down), returning G and the iteration count the
// op-budget regression tests pin (MulBudget(iters) products).
func cyclicReduction(b0, b1, b2 *mat.Matrix) (*mat.Matrix, int, error) {
	return cyclicReductionObs(b0, b1, b2, nil, nil)
}

// cyclicReductionObs is cyclicReduction drawing its working set from ws (nil
// ws allocates), recording the residual min(‖up‖∞, ‖down‖∞) of iteration k
// in trace[k-1] (nil trace records nothing; otherwise it needs maxCRIter
// entries). The returned G is drawn from ws but not handed back to it.
func cyclicReductionObs(b0, b1, b2 *mat.Matrix, ws *mat.Workspace, trace []float64) (g *mat.Matrix, iters int, err error) {
	s := newCRState(b0.Rows(), ws)
	defer s.release()
	s.start(b0, b1, b2)
	for iter := 0; iter < maxCRIter; iter++ {
		done, err := s.step()
		if trace != nil {
			trace[iter] = s.residual
		}
		if err != nil {
			return nil, iter, fmt.Errorf("qbd: cyclic reduction step %d: %w", iter, err)
		}
		if !done {
			continue
		}
		// G = (I − Â₀)⁻¹·b2: the first repeating level, censored on itself,
		// reaches level 0 by any number of hat-loops followed by one down
		// step.
		s.work.SubInto(s.id, s.hat)
		if err := mat.FactorizeInto(s.lu, s.work); err != nil {
			return nil, iter + 1, fmt.Errorf("qbd: cyclic reduction: censored level: %w", err)
		}
		g = s.ws.MatrixUninit(b0.Rows(), b0.Cols())
		s.lu.SolveMatInto(g, b2)
		return g, iter + 1, nil
	}
	return nil, maxCRIter, fmt.Errorf("%w: cyclic reduction after %d iterations", ErrNoConvergence, maxCRIter)
}
