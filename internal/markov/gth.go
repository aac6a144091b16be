package markov

import (
	"fmt"

	"bgperf/internal/mat"
)

// StationaryCTMCGTH returns the stationary vector of an irreducible CTMC by
// the Grassmann–Taksar–Heyman (GTH) algorithm. GTH performs state-by-state
// censoring using only additions and multiplications of nonnegative
// quantities — no subtractions — so it is immune to the cancellation that
// can degrade LU-based solves on stiff generators (rates spanning many
// orders of magnitude, as the paper's trace MMPPs do).
func StationaryCTMCGTH(q *mat.Matrix) ([]float64, error) {
	if err := CheckGenerator(q, 0); err != nil {
		return nil, err
	}
	n := q.Rows()
	if n == 0 {
		return nil, ErrReducible
	}
	if n == 1 {
		return []float64{1}, nil
	}
	// Work on the off-diagonal rates only; diagonals are implied and never
	// read. The sweeps run on row slices.
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		src, dst := q.RowView(i), a.RowView(i)
		for j, v := range src {
			if v < 0 {
				v = 0 // tolerance-level noise from CheckGenerator
			}
			dst[j] = v
		}
		dst[i] = 0
	}
	// Censoring sweep: eliminate states n−1, …, 1. After eliminating state
	// k, a[i][j] (i,j < k) describes the chain watched only on {0..k−1}.
	for k := n - 1; k >= 1; k-- {
		rk := a.RowView(k)[:k]
		out := mat.Sum(rk) // total rate out of state k toward {0..k−1}
		if out <= 0 {
			return nil, fmt.Errorf("%w: state %d cannot reach lower-indexed states", ErrReducible, k)
		}
		for i := 0; i < k; i++ {
			ri := a.RowView(i)
			aik := ri[k]
			if aik == 0 {
				continue
			}
			scale := aik / out
			ri = ri[:k]
			for j, v := range rk {
				ri[j] += scale * v
			}
			ri[i] = 0 // the update also touched the diagonal
		}
	}
	// Back substitution: unnormalized π with π[0] = 1.
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		out := mat.Sum(a.RowView(k)[:k])
		var in float64
		for i := 0; i < k; i++ {
			in += pi[i] * a.At(i, k)
		}
		pi[k] = in / out
	}
	sum := mat.Sum(pi)
	if sum <= 0 {
		return nil, ErrReducible
	}
	return mat.ScaleVec(pi, 1/sum), nil
}
