// Package qbdtest holds reference algorithms for the minimal rate matrix R
// of a QBD, used only by tests as independent oracles for the production
// cyclic-reduction solver in package qbd: the Latouche–Ramaswami logarithmic
// reduction (the scheme the paper cites, ref. [10]) and the classical
// functional iteration. Both are plain allocating code on raw repeating
// blocks (A0 up, A1 local, A2 down) with no workspace, observer, or worker
// plumbing, so they share nothing with the code they check. GTH is the
// element-wise reference of the kernel that solves the boundary's level 0.
package qbdtest

import (
	"errors"
	"fmt"
	"math"

	"bgperf/internal/mat"
)

// LogReductionG computes the first-passage matrix G of the QBD with generator
// blocks (a0, a1, a2) by logarithmic reduction on the uniformized chain.
func LogReductionG(a0, a1, a2 *mat.Matrix) (*mat.Matrix, error) {
	m := a0.Rows()
	theta := 0.0
	for i := 0; i < m; i++ {
		theta = math.Max(theta, -a1.At(i, i))
	}
	if theta == 0 {
		return nil, fmt.Errorf("qbdtest: zero generator")
	}
	b0 := a0.Clone().Scale(1 / theta)
	b1 := a1.Clone().Scale(1 / theta).AddMat(mat.Identity(m))
	b2 := a2.Clone().Scale(1 / theta)

	// h = (I−b1)⁻¹·b0, l = (I−b1)⁻¹·b2; G = l + t·l' + …, t the product of h's.
	inv, err := mat.Inverse(mat.Identity(m).SubMat(b1))
	if err != nil {
		return nil, fmt.Errorf("qbdtest: logarithmic reduction: %w", err)
	}
	h, l := inv.Mul(b0), inv.Mul(b2)
	g, t := l.Clone(), h.Clone()
	for iter := 0; iter < 200; iter++ {
		u := h.Mul(l).AddMat(l.Mul(h))
		inv, err := mat.Inverse(mat.Identity(m).SubMat(u))
		if err != nil {
			return nil, fmt.Errorf("qbdtest: logarithmic reduction step %d: %w", iter, err)
		}
		h, l = inv.Mul(h.Mul(h)), inv.Mul(l.Mul(l))
		tl := t.Mul(l)
		g.AddInPlace(tl)
		defect := 0.0
		for _, rs := range g.RowSums() {
			defect = math.Max(defect, math.Abs(1-rs))
		}
		// Recurrent chains drive the defect to zero; transient ones only
		// make the update negligible.
		if defect < 1e-13 || tl.MaxAbs() < 1e-15 {
			return g, nil
		}
		t = t.Mul(h)
	}
	return nil, errors.New("qbdtest: logarithmic reduction did not converge")
}

// LogReductionR computes R = A0·(−(A1 + A0·G))⁻¹ from the logarithmic-
// reduction G.
func LogReductionR(a0, a1, a2 *mat.Matrix) (*mat.Matrix, error) {
	g, err := LogReductionG(a0, a1, a2)
	if err != nil {
		return nil, err
	}
	inv, err := mat.Inverse(a1.AddMat(a0.Mul(g)).Scale(-1))
	if err != nil {
		return nil, fmt.Errorf("qbdtest: R: %w", err)
	}
	return a0.Mul(inv), nil
}

// FunctionalIterationR computes R by the classical linearly convergent
// iteration R ← −(A0 + R²·A2)·A1⁻¹, stopping once the max-abs change drops
// below tol (<= 0 means 1e-12) or after maxIter steps (<= 0 means 100000).
func FunctionalIterationR(a0, a1, a2 *mat.Matrix, tol float64, maxIter int) (*mat.Matrix, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 100000
	}
	invA1, err := mat.Inverse(a1)
	if err != nil {
		return nil, fmt.Errorf("qbdtest: functional iteration: %w", err)
	}
	r := mat.New(a0.Rows(), a0.Cols())
	for iter := 0; iter < maxIter; iter++ {
		next := a0.AddMat(r.Mul(r).Mul(a2)).Mul(invA1).Scale(-1)
		d := next.SubMat(r).MaxAbs()
		r = next
		if d < tol {
			return r, nil
		}
	}
	return nil, fmt.Errorf("qbdtest: functional iteration did not converge in %d steps", maxIter)
}

// GTH is the element-wise form of markov.StationaryCTMCGTH, which must
// match it bit for bit: the same censoring sweep and back substitution
// through At, Set and Add, with the diagonal skipped in the update instead
// of reset after it. q must be a generator of order at least one; a state
// that cannot reach a lower-indexed one is an error.
func GTH(q *mat.Matrix) ([]float64, error) {
	n := q.Rows()
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				v := q.At(i, j)
				if v < 0 {
					v = 0
				}
				a.Set(i, j, v)
			}
		}
	}
	for k := n - 1; k >= 1; k-- {
		var out float64
		for j := 0; j < k; j++ {
			out += a.At(k, j)
		}
		if out <= 0 {
			return nil, fmt.Errorf("qbdtest: GTH: state %d cannot reach lower-indexed states", k)
		}
		for i := 0; i < k; i++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			scale := aik / out
			for j := 0; j < k; j++ {
				if j != i {
					a.Add(i, j, scale*a.At(k, j))
				}
			}
		}
	}
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var out float64
		for j := 0; j < k; j++ {
			out += a.At(k, j)
		}
		var in float64
		for i := 0; i < k; i++ {
			in += pi[i] * a.At(i, k)
		}
		pi[k] = in / out
	}
	return mat.ScaleVec(pi, 1/mat.Sum(pi)), nil
}
