package qbd

import (
	"strings"
	"testing"

	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/obs"
)

// TestNewValidationOrderStable checks that when several blocks are malformed,
// New reports the same block every time — validation follows the fixed order
// A0, A1, A2 rather than map iteration order.
func TestNewValidationOrderStable(t *testing.T) {
	// A0 is the 2x2 reference shape; both A1 and A2 are mis-shaped, so an
	// order-dependent implementation could report either.
	a0 := mat.New(2, 2)
	a1 := mat.New(3, 3)
	a2 := mat.New(4, 4)
	const want = "A1 is 3x3, want 2x2"
	var first string
	for i := 0; i < 20; i++ {
		_, err := New(a0, a1, a2)
		if err == nil {
			t.Fatal("New accepted mismatched block shapes")
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("iteration %d: error %q does not mention %q", i, err, want)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("iteration %d: error changed from %q to %q", i, first, err)
		}
	}
}

// TestDriftCached checks that Drift is computed once per process: Stable, R,
// and repeated Drift calls must share a single StationaryCTMC solve.
func TestDriftCached(t *testing.T) {
	p, _ := me2q(0.4, 1.0)
	markov.ResetStationaryCalls()
	if _, _, err := p.Drift(); err != nil {
		t.Fatal(err)
	}
	if got := markov.StationaryCalls(); got != 1 {
		t.Fatalf("first Drift made %d StationaryCTMC calls, want 1", got)
	}
	if _, err := p.Stable(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Drift(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.R(); err != nil {
		t.Fatal(err)
	}
	if got := markov.StationaryCalls(); got != 1 {
		t.Fatalf("Stable+Drift+R made %d StationaryCTMC calls in total, want 1", got)
	}
}

// TestBoundaryFoldLUCount pins the factorizations of a solve through the
// workspace statistics. On a process of one phase block (no Sylvester
// systems) they are all of the repeating order: cyclic reduction, R's
// N = (−(A1 + A0·G))⁻¹ and the tail's I−R take one each, the top boundary
// level none, since its fold starts from N, and every lower boundary level
// one.
func TestBoundaryFoldLUCount(t *testing.T) {
	me2, me2b := me2q(0.4, 1.0)
	m1, m1b := mm1(1, 2.5)
	m1b2 := Boundary{
		Local: []*mat.Matrix{mat.MustFromRows([][]float64{{-1}}), mat.MustFromRows([][]float64{{-3.5}})},
		Up:    []*mat.Matrix{mat.MustFromRows([][]float64{{1}}), mat.MustFromRows([][]float64{{1}})},
		Down:  []*mat.Matrix{nil, mat.MustFromRows([][]float64{{2.5}})},
	}
	for _, c := range []struct {
		name string
		p    *Process
		b    Boundary
		want int64
	}{{"M/E2/1", me2, me2b, 3}, {"M/M/1", m1, m1b, 3}, {"M/M/1 two levels", m1, m1b2, 4}} {
		diag := obs.NewDiagnostics()
		if _, err := SolveObserved(c.b, c.p, diag); err != nil {
			t.Fatal(err)
		}
		ws := diag.Report().Workspace
		if got := ws.LUHits + ws.LUMisses; got != c.want {
			t.Errorf("%s: %d LU factorizations, want %d", c.name, got, c.want)
		}
	}
}
