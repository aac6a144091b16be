package core_test

import (
	"math"
	"testing"

	"bgperf/internal/check"
	"bgperf/internal/core"
	"bgperf/internal/qbd/qbdtest"
)

// TestROracleOnGeneratedConfigs cross-checks the R of every production solve
// against the logarithmic-reduction oracle on the configurations the
// conformance generator draws, so the agreement is pinned on the chains users
// solve (reducible util-threshold blocks included), not only on the synthetic
// processes of the qbd tests. R must agree element-wise to 1e-12 and satisfy
// ‖A0 + R·A1 + R²·A2‖∞ ≤ 1e-10.
func TestROracleOnGeneratedConfigs(t *testing.T) {
	const (
		cases       = 32
		tol         = 1e-12
		residualTol = 1e-10
	)
	gen := check.NewGenerator(1)
	for i := 0; i < cases; i++ {
		c := gen.Next()
		t.Run(c.Name, func(t *testing.T) {
			m, err := core.NewModel(c.Cfg)
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			sol, err := m.Solve()
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			_, proc, err := m.ChainQBD()
			if err != nil {
				t.Fatalf("ChainQBD: %v", err)
			}
			a0, a1, a2 := proc.A0(), proc.A1(), proc.A2()
			r := sol.QBD().R
			oracle, err := qbdtest.LogReductionR(a0, a1, a2)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if r.Rows() != oracle.Rows() || r.Cols() != oracle.Cols() {
				t.Fatalf("R shape mismatch: %dx%d vs %dx%d", r.Rows(), r.Cols(), oracle.Rows(), oracle.Cols())
			}
			for i := 0; i < r.Rows(); i++ {
				for j := 0; j < r.Cols(); j++ {
					if d := math.Abs(r.At(i, j) - oracle.At(i, j)); d > tol {
						t.Errorf("R(%d,%d): |cyclic−oracle| = %g > %g", i, j, d, tol)
					}
				}
			}
			res := a0.AddMat(r.Mul(a1)).AddInPlace(r.Mul(r).Mul(a2)).NormInf()
			if res > residualTol {
				t.Errorf("‖A0 + R·A1 + R²·A2‖∞ = %g > %g", res, residualTol)
			}
		})
	}
}
