package qbd_test

import (
	"math"
	"strings"
	"testing"

	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/qbd"
	"bgperf/internal/qbd/qbdtest"
)

// oracleFold is the boundary's level reduction written out plainly: it
// forms the censored top level S_{B+1} = A1 + R·A2 and inverts it
// explicitly, where the solver reuses the (−(A1 + A0·G))⁻¹ of R's step, and
// folds every level with allocating products and explicit inverses. It
// returns the generator S_0 of the chain censored on level 0 (diagonal
// reset from the off-diagonal rates, as GTH reads it), the propagation
// matrices T_j (π_j = π_{j−1}·T_j, j = 1..B+1) and R.
func oracleFold(t *testing.T, b qbd.Boundary, p *qbd.Process) (s0 *mat.Matrix, ts []*mat.Matrix, r *mat.Matrix) {
	t.Helper()
	r, err := p.R()
	if err != nil {
		t.Fatalf("R: %v", err)
	}
	nb := len(b.Local)
	repDown := b.RepDown
	if repDown == nil {
		repDown = p.A2()
	}
	s := p.A1().AddMat(r.Mul(p.A2()))
	ts = make([]*mat.Matrix, nb+1)
	for j := nb; j >= 1; j-- {
		inv, err := mat.Inverse(s.Scale(-1))
		if err != nil {
			t.Fatalf("level %d: %v", j, err)
		}
		ts[j] = b.Up[j-1].Mul(inv)
		down := repDown
		if j < nb {
			down = b.Down[j]
		}
		s = b.Local[j-1].AddMat(ts[j].Mul(down))
	}
	for i := 0; i < s.Rows(); i++ {
		s.Set(i, i, 0)
		s.Set(i, i, -s.RowSum(i))
	}
	return s, ts, r
}

// TestBoundaryMatchesExplicitFold pins the boundary solve, whose top fold
// starts from the N = (−(A1 + A0·G))⁻¹ of R's step, to oracleFold on every
// chain of blockCases (the 32 large-state shapes, the 64 check
// configurations and util-threshold admission at K = 0 and K = 3 among
// them): each entry of BoundaryPi and RepPi agrees to 1e-12 relative above
// a 1e-15 floor, where probabilities are zero to double precision. On the
// level-0 generator of each chain the GTH kernel also matches its
// element-wise reference bit for bit.
func TestBoundaryMatchesExplicitFold(t *testing.T) {
	const (
		tol   = 1e-12
		floor = 1e-15
	)
	for _, c := range blockCases(t) {
		t.Run(c.name, func(t *testing.T) {
			b, p := c.chain(t)
			if stable, err := p.Stable(); err != nil || !stable {
				t.Skipf("not positive recurrent (err %v)", err)
			}
			sol, err := qbd.Solve(b, p)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			s0, ts, r := oracleFold(t, b, p)
			pi0, err := markov.StationaryCTMCGTH(s0)
			if err != nil {
				t.Fatalf("level 0: %v", err)
			}
			ref, err := qbdtest.GTH(s0)
			if err != nil {
				t.Fatalf("level 0 reference: %v", err)
			}
			for i := range ref {
				if math.Float64bits(pi0[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("GTH π_0[%d] = %v, element-wise reference %v", i, pi0[i], ref[i])
				}
			}
			levels := [][]float64{pi0}
			for j := 1; j < len(ts); j++ {
				levels = append(levels, ts[j].VecMul(levels[j-1]))
			}
			// The tail mass RepPi·(I−R)⁻¹: a left solve on a factorization
			// of I−R, as Solve normalizes.
			tail, err := mat.SolveLeft(mat.Identity(r.Rows()).SubMat(r), levels[len(levels)-1])
			if err != nil {
				t.Fatalf("I−R: %v", err)
			}
			total := mat.Sum(tail)
			for _, pi := range levels[:len(levels)-1] {
				total += mat.Sum(pi)
			}
			got := append(append([][]float64{}, sol.BoundaryPi...), sol.RepPi)
			for j, want := range levels {
				for i, w := range want {
					w /= total
					if d := math.Abs(got[j][i] - w); d > tol*math.Max(math.Abs(got[j][i]), math.Abs(w))+floor {
						t.Errorf("level %d phase %d: solve %.17g, explicit fold %.17g (difference %.3g)", j, i, got[j][i], w, d)
					}
				}
			}
		})
	}
}

// TestClassDriftMatchesDenseLU checks the closed-class drift against the φ
// of a dense LU solve on the whole A = A0+A1+A2 on the configurations of
// `bgperf check -n 64 -seed 1`: both rates agree to 1e-12 relative. Chains
// whose A has several closed classes have no unique φ, so the dense solve
// fails there and they are skipped.
func TestClassDriftMatchesDenseLU(t *testing.T) {
	const tol = 1e-12
	compared := 0
	for _, c := range blockCases(t) {
		if !strings.HasPrefix(c.name, "check/") {
			continue
		}
		p := c.process(t)
		a := p.A0().AddMat(p.A1()).AddInPlace(p.A2())
		phi, err := markov.StationaryCTMC(a)
		if err != nil {
			continue
		}
		compared++
		up, down, err := p.Drift()
		if err != nil {
			t.Fatalf("%s: Drift: %v", c.name, err)
		}
		for _, x := range []struct {
			name      string
			got, want float64
		}{{"up", up, mat.Dot(phi, p.A0().RowSums())}, {"down", down, mat.Dot(phi, p.A2().RowSums())}} {
			if d := math.Abs(x.got - x.want); d > tol*math.Max(math.Abs(x.got), math.Abs(x.want)) {
				t.Errorf("%s: %s drift %.17g, dense φ %.17g (difference %.3g)", c.name, x.name, x.got, x.want, d)
			}
		}
	}
	if compared < 62 { // the two util-threshold configurations have several classes
		t.Fatalf("only %d of 64 check configurations have a unique φ", compared)
	}
	t.Logf("%d configurations compared", compared)
}
