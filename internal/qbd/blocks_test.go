package qbd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bgperf/internal/mat"
	"bgperf/internal/obs"
	"bgperf/internal/qbd/qbdtest"
)

// blockProcess builds a stable QBD whose phase graph has two strongly
// connected components: a ring on phases k..k+n−1 that leaks — within a
// level, up and down — into a ring on phases 0..k−1, which it never leaves.
// The leaking ring comes first in topological order, so the block order is
// not the original one. For n >= 64 its diagonal block exercises the
// fanned-out multiplies of cyclic reduction.
func blockProcess(t *testing.T, n, k int) *Process {
	t.Helper()
	m := n + k
	a0, a1, a2 := mat.New(m, m), mat.New(m, m), mat.New(m, m)
	for i := 0; i < k; i++ {
		a0.Set(i, i, 0.3)
		a2.Set(i, i, 0.7)
		a1.Set(i, (i+1)%k, 0.2)
	}
	for j := 0; j < n; j++ {
		i := k + j
		a0.Set(i, i, 0.3)
		a2.Set(i, i, 0.6)
		a1.Set(i, k+(j+1)%n, 0.2)
		a1.Set(i, j%k, 0.05)
		a0.Set(i, (j+1)%k, 0.02)
		a2.Set(i, (j+2)%k, 0.1)
	}
	for i := 0; i < m; i++ {
		a1.Set(i, i, -(mat.Sum(a0.Row(i)) + mat.Sum(a2.Row(i)) + mat.Sum(a1.Row(i))))
	}
	p, err := New(a0, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPhaseBlocksOrder pins the partition on a hand-built graph: SCCs in
// topological order, ties broken by the smallest phase, phases ascending,
// and the sink flags.
func TestPhaseBlocksOrder(t *testing.T) {
	// Edges: 4↔1 (one SCC), 1→2, 3→2, 0→3, 5 isolated; 2 and 5 are sinks.
	edges := [][2]int{{4, 1}, {1, 4}, {1, 2}, {3, 2}, {0, 3}}
	a := mat.New(6, 6)
	for _, e := range edges {
		a.Set(e[0], e[1], 1)
	}
	perm, start, sink := phaseBlocks(a)
	// {0}, {1,4} and {5} start ready. {0} goes first and readies {3}; then
	// {1,4} (key 1), {3}, which readies {2}, then {2} and {5}.
	wantPerm := []int{0, 1, 4, 3, 2, 5}
	wantStart := []int{0, 1, 3, 4, 5, 6}
	wantSink := []bool{false, false, false, true, true}
	if !reflect.DeepEqual(perm, wantPerm) || !reflect.DeepEqual(start, wantStart) || !reflect.DeepEqual(sink, wantSink) {
		t.Fatalf("phaseBlocks = %v %v %v, want %v %v %v", perm, start, sink, wantPerm, wantStart, wantSink)
	}
}

// TestLargePairsSolveWhole checks the kroneckerBudget guard: two SCCs of
// order 96 would need a Kronecker system of order 9216, so the level is
// solved as one block in the original order, while the drift fallback still
// sees the closed class.
func TestLargePairsSolveWhole(t *testing.T) {
	p := blockProcess(t, 96, 96)
	if len(p.start) != 2 || !p.identityPerm {
		t.Fatalf("blocks %v (identity %v), want one block in the original order", p.start, p.identityPerm)
	}
	if len(p.closed) != 1 || len(p.closed[0]) != 96 || p.closed[0][0] != 0 {
		t.Fatalf("closed classes %v, want the ring on phases 0..95", p.closed)
	}
	if _, err := p.R(); err != nil {
		t.Fatal(err)
	}
}

// TestOneBlockBitIdentical pins that a process whose phase graph is one
// strongly connected component runs the whole-matrix cyclic reduction on
// the unpermuted blocks: G and R are == the whole-matrix results.
func TestOneBlockBitIdentical(t *testing.T) {
	procs := map[string]*Process{"big96": bigProcess(t, 96)}
	procs["mm1"], _ = mm1(1, 2.5)
	procs["me2q"], _ = me2q(0.4, 1.0)
	rng := rand.New(rand.NewSource(3))
	for len(procs) < 8 {
		if p, _, ok := randomStableQBD(rng, 4); ok && len(p.start) == 2 {
			procs["random"+string(rune('a'+len(procs)))] = p
		}
	}
	for name, p := range procs {
		t.Run(name, func(t *testing.T) {
			if len(p.start) != 2 {
				t.Fatalf("%d phase blocks, want 1", len(p.start)-1)
			}
			g, r, err := p.BlockGR()
			if err != nil {
				t.Fatal(err)
			}
			wg, wr, err := p.WholeGR()
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []struct {
				name      string
				got, want *mat.Matrix
			}{{"G", g, wg}, {"R", r, wr}} {
				for i := 0; i < x.got.Rows(); i++ {
					for j := 0; j < x.got.Cols(); j++ {
						if a, b := x.got.At(i, j), x.want.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s(%d,%d) = %v, whole-matrix %v", x.name, i, j, a, b)
						}
					}
				}
			}
		})
	}
}

// TestBlockProcessAgainstOracles checks the two-block process, whose block
// order interleaves the original phases, against the whole-matrix cyclic
// reduction and the logarithmic-reduction oracle, and sp(R) against power
// iteration on the whole R.
func TestBlockProcessAgainstOracles(t *testing.T) {
	p := blockProcess(t, 8, 3)
	if len(p.start) != 3 || p.identityPerm {
		t.Fatalf("blocks %v (identity %v), want two reordered blocks", p.start, p.identityPerm)
	}
	_, r, err := p.BlockGR()
	if err != nil {
		t.Fatal(err)
	}
	_, wr, err := p.WholeGR()
	if err != nil {
		t.Fatal(err)
	}
	lr, err := qbdtest.LogReductionR(p.A0(), p.A1(), p.A2())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < r.Cols(); j++ {
			if d := math.Max(math.Abs(r.At(i, j)-wr.At(i, j)), math.Abs(r.At(i, j)-lr.At(i, j))); d > 1e-13 {
				t.Fatalf("R(%d,%d) = %g, whole-matrix %g, oracle %g", i, j, r.At(i, j), wr.At(i, j), lr.At(i, j))
			}
		}
	}
	sp := p.spectralRadius(r, nil)
	if want := mat.SpectralRadius(r, 1e-14, 100000); math.Abs(sp-want) > 1e-10 {
		t.Fatalf("block sp(R) = %.15g, power iteration %.15g", sp, want)
	}
}

// TestObserverReportsLongestBlock pins the observer contract of the block
// solve: RSolved carries the largest per-block iteration count, the
// convergence trace is that block's, and sp(R) is the Solution's.
func TestObserverReportsLongestBlock(t *testing.T) {
	// Slow the first block (down rate 0.35 against up 0.3) so the two
	// blocks need different iteration counts.
	p := blockProcess(t, 8, 3)
	a1, a2 := p.A1(), p.A2()
	for i := 0; i < 3; i++ {
		a1.Add(i, i, a2.At(i, i)-0.35)
		a2.Set(i, i, 0.35)
	}
	p, err := New(p.A0(), a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	diag := obs.NewDiagnostics()
	b := Boundary{
		Local: []*mat.Matrix{p.A1().AddMat(p.A2())},
		Up:    []*mat.Matrix{p.A0()},
		Down:  []*mat.Matrix{nil},
	}
	sol, err := SolveObserved(b, p, diag)
	if err != nil {
		t.Fatal(err)
	}
	a0, a1, a2 := p.permuted(p.a0, nil), p.permuted(p.a1, nil), p.permuted(p.a2, nil)
	most, mostTrace, counts := 0, []float64(nil), map[int]bool{}
	for blk := 0; blk+1 < len(p.start); blk++ {
		s, e := p.blockRange(blk)
		trace := make([]float64, maxCRIter)
		_, iters, err := diagonalG(a0, a1, a2, s, e, nil, trace)
		if err != nil {
			t.Fatal(err)
		}
		counts[iters] = true
		if iters > most {
			most, mostTrace = iters, trace[:iters]
		}
	}
	if len(counts) < 2 {
		t.Fatalf("blocks all take %d iterations; the test needs them to differ", most)
	}
	rep := diag.Report()
	if rep.LastRIterations != most || !reflect.DeepEqual(rep.ConvergenceTrace, mostTrace) {
		t.Fatalf("observer got %d iterations, trace %v; want %d, %v",
			rep.LastRIterations, rep.ConvergenceTrace, most, mostTrace)
	}
	if sp := rep.LastSpectralRadius; sp != sol.SpectralRadius() || sp <= 0 || sp >= 1 {
		t.Fatalf("observer sp(R) %v, Solution %v", sp, sol.SpectralRadius())
	}
	if rep.LastResidual > 1e-12 {
		t.Fatalf("G residual %g", rep.LastResidual)
	}
}
