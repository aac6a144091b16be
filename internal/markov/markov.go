// Package markov provides Markov chain utilities: generator validation,
// stationary distributions of finite irreducible CTMCs, uniformization, and
// transient distributions.
//
// These primitives underpin both the arrival-process library (stationary
// phase vectors of MMPPs) and the QBD solver (drift conditions, cyclic
// reduction on the uniformized chain).
package markov

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"bgperf/internal/mat"
)

// stationaryCount counts StationaryCTMC solves process-wide; see
// StationaryCalls.
var stationaryCount atomic.Int64

// StationaryCalls returns the cumulative number of StationaryCTMC solves
// performed process-wide since start or the last ResetStationaryCalls. It
// exists so tests can assert call budgets on solver paths (e.g. that a QBD
// solve runs exactly one drift computation). Safe for concurrent use.
func StationaryCalls() int64 { return stationaryCount.Load() }

// ResetStationaryCalls zeroes the counter reported by StationaryCalls.
func ResetStationaryCalls() { stationaryCount.Store(0) }

// ErrNotGenerator reports a matrix that is not a CTMC infinitesimal
// generator (nonnegative off-diagonal entries, zero row sums).
var ErrNotGenerator = errors.New("markov: not an infinitesimal generator")

// ErrReducible reports a chain whose stationary system is singular, which for
// our use means the chain is reducible or otherwise degenerate.
var ErrReducible = errors.New("markov: chain has no unique stationary distribution")

// defaultTol is the validation tolerance for row sums and signs.
const defaultTol = 1e-9

// CheckGenerator verifies that q is a CTMC generator: square, finite,
// nonnegative off-diagonal, non-positive diagonal, and row sums zero within
// tol (defaultTol when tol <= 0).
func CheckGenerator(q *mat.Matrix, tol float64) error {
	if tol <= 0 {
		tol = defaultTol
	}
	n := q.Rows()
	if n != q.Cols() {
		return fmt.Errorf("%w: %dx%d is not square", ErrNotGenerator, q.Rows(), q.Cols())
	}
	if !q.IsFinite() {
		return fmt.Errorf("%w: non-finite entries", ErrNotGenerator)
	}
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			v := q.At(i, j)
			sum += v
			if i == j {
				if v > tol {
					return fmt.Errorf("%w: positive diagonal %g at row %d", ErrNotGenerator, v, i)
				}
			} else if v < -tol {
				return fmt.Errorf("%w: negative off-diagonal %g at (%d,%d)", ErrNotGenerator, v, i, j)
			}
		}
		scale := math.Max(1, math.Abs(q.At(i, i)))
		if math.Abs(sum) > tol*scale {
			return fmt.Errorf("%w: row %d sums to %g", ErrNotGenerator, i, sum)
		}
	}
	return nil
}

// StationaryCTMC returns the stationary probability vector π of the
// irreducible CTMC with generator q: πQ = 0, πe = 1.
func StationaryCTMC(q *mat.Matrix) ([]float64, error) {
	stationaryCount.Add(1)
	if err := CheckGenerator(q, 0); err != nil {
		return nil, err
	}
	return stationaryFromSingular(q)
}

// stationaryFromSingular solves x·M = 0, x·e = 1 where M has a one-
// dimensional left null space, by replacing the last column of M with ones.
func stationaryFromSingular(m *mat.Matrix) ([]float64, error) {
	n := m.Rows()
	if n == 0 {
		return nil, ErrReducible
	}
	a := m.Clone()
	for i := 0; i < n; i++ {
		a.Set(i, n-1, 1)
	}
	rhs := make([]float64, n)
	rhs[n-1] = 1
	x, err := mat.SolveLeft(a, rhs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrReducible, err)
	}
	// Clamp tiny negative round-off and renormalize.
	var sum float64
	for i, v := range x {
		if v < 0 {
			if v < -1e-8 {
				return nil, fmt.Errorf("%w: negative stationary mass %g", ErrReducible, v)
			}
			x[i] = 0
			v = 0
		}
		sum += v
	}
	if sum <= 0 {
		return nil, ErrReducible
	}
	mat.ScaleVec(x, 1/sum)
	return x, nil
}

// Uniformize converts the generator q into the transition matrix of its
// uniformized DTMC, P = I + Q/θ, and returns (P, θ). The uniformization rate
// θ is max_i |q_ii| inflated slightly so P stays strictly substochastic in
// each transient row, which improves the numerical behaviour of the
// reduction algorithms run on P. Uniformize panics if q has a zero diagonal
// everywhere (no transitions at all).
func Uniformize(q *mat.Matrix) (*mat.Matrix, float64) {
	n := q.Rows()
	theta := 0.0
	for i := 0; i < n; i++ {
		if d := -q.At(i, i); d > theta {
			theta = d
		}
	}
	if theta == 0 {
		panic("markov: cannot uniformize the zero generator")
	}
	theta *= 1 + 1e-12
	p := q.Clone().Scale(1 / theta)
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	return p, theta
}
