package qbd

import (
	"math"
	"sync"
	"testing"

	"bgperf/internal/mat"
	"bgperf/internal/qbd/qbdtest"
	"bgperf/internal/raceflag"
)

// dtmcBlocks returns a small recurrent uniformized QBD (DTMC blocks):
// nonnegative, rows of b0+b1+b2 summing to one, downward drift dominant.
func dtmcBlocks() (b0, b1, b2 *mat.Matrix) {
	b0 = mat.MustFromRows([][]float64{{0.1, 0.1}, {0.05, 0.1}})
	b1 = mat.MustFromRows([][]float64{{0.2, 0.2}, {0.15, 0.2}})
	b2 = mat.MustFromRows([][]float64{{0.3, 0.1}, {0.2, 0.3}})
	return b0, b1, b2
}

// bigProcess builds a stable order-n QBD whose A0/A2 are scaled identities
// (the structure of the paper's chains) and whose phase chain is an
// irreducible ring. For n >= sparseMinOrder this exercises the CSR fast
// paths in rWS and the boundary sweep.
func bigProcess(t *testing.T, n int) *Process {
	t.Helper()
	a0, a1, a2 := mat.New(n, n), mat.New(n, n), mat.New(n, n)
	for i := 0; i < n; i++ {
		a0.Set(i, i, 0.3)
		a2.Set(i, i, 0.7)
		a1.Set(i, (i+1)%n, 0.2)
		a1.Set(i, i, -(0.3 + 0.7 + 0.2))
	}
	p, err := New(a0, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCyclicReductionG(t *testing.T) {
	b0, b1, b2 := dtmcBlocks()
	g, iters, err := cyclicReduction(b0, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("expected at least one iteration, got %d", iters)
	}
	for i, s := range g.RowSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("G row %d sums to %g, want 1", i, s)
		}
	}
}

// TestCyclicReductionMulBudget pins cyclic reduction's op budget: exactly
// four matrix products per iteration (the shared up·S·down, down·S·up, and
// the two block squarings) and none outside the loop — the final G assembly
// is a triangular solve, not a product.
func TestCyclicReductionMulBudget(t *testing.T) {
	b0, b1, b2 := dtmcBlocks()
	mat.ResetMulCount()
	_, iters, err := cyclicReduction(b0, b1, b2)
	muls := mat.MulCount()
	if err != nil {
		t.Fatal(err)
	}
	want := MulBudget(iters)
	if muls != want {
		t.Fatalf("cyclicReduction used %d matrix products over %d iterations, want exactly %d",
			muls, iters, want)
	}
}

// TestCyclicReductionStepZeroAlloc pins the zero-allocation contract of the
// cyclic-reduction inner loop: once the working set is built, each iteration
// runs entirely on preallocated buffers.
func TestCyclicReductionStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	b0, b1, b2 := dtmcBlocks()
	s := newCRState(b0.Rows(), nil)
	s.start(b0, b1, b2)
	// A converged state keeps iterating harmlessly (up and down shrink
	// toward zero), so AllocsPerRun can re-run step on the same state.
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cyclicReduction step allocated %.0f times per run, want 0", allocs)
	}
}

// TestCyclicAgreesWithLogReduction pins the 1e-12 cross-check between
// cyclic reduction and the logarithmic-reduction oracle at the G level. The
// oracle takes generator blocks, so the DTMC's local block loses its
// identity.
func TestCyclicAgreesWithLogReduction(t *testing.T) {
	b0, b1, b2 := dtmcBlocks()
	gLR, err := qbdtest.LogReductionG(b0, b1.SubMat(mat.Identity(b1.Rows())), b2)
	if err != nil {
		t.Fatal(err)
	}
	gCR, _, err := cyclicReduction(b0, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gLR.Rows(); i++ {
		for j := 0; j < gLR.Cols(); j++ {
			if d := math.Abs(gLR.At(i, j) - gCR.At(i, j)); d > 1e-12 {
				t.Fatalf("G disagreement at (%d,%d): %g", i, j, d)
			}
		}
	}
}

// TestROracleAgreement requires R from the production solve to agree with
// the logarithmic-reduction oracle to 1e-12, covering the degenerate
// one-phase chain, a rectangular-boundary PH-service chain, and a large
// sparse-block chain that exercises the CSR fast paths.
func TestROracleAgreement(t *testing.T) {
	builds := []struct {
		name  string
		build func() *Process
	}{
		{"mm1", func() *Process { p, _ := mm1(1, 2.5); return p }},
		{"me2q", func() *Process { p, _ := me2q(0.4, 1.0); return p }},
		{"big96", func() *Process { return bigProcess(t, 96) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			p := b.build()
			rCR, err := p.R()
			if err != nil {
				t.Fatal(err)
			}
			rLR, err := qbdtest.LogReductionR(p.A0(), p.A1(), p.A2())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rCR.Rows(); i++ {
				for j := 0; j < rCR.Cols(); j++ {
					if d := math.Abs(rCR.At(i, j) - rLR.At(i, j)); d > 1e-12 {
						t.Fatalf("R disagreement at (%d,%d): %g (cyclic %g vs oracle %g)",
							i, j, d, rCR.At(i, j), rLR.At(i, j))
					}
				}
			}
		})
	}
}

// TestWorkersBitIdentical pins the determinism of concurrent solves: four
// goroutines solving R on one Process at once, each on a workspace drawn
// from the shared pool, must each get the serial R bit for bit. Run under
// -race (the CI parallel-path step) this also exercises the process's lazy
// drift and sparse-snapshot initialization and the pooled workspaces
// changing hands between solves.
func TestWorkersBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(*testing.T) *Process
	}{
		{"cyclic", func(t *testing.T) *Process { return bigProcess(t, 96) }},
		{"blocks", func(t *testing.T) *Process { return blockProcess(t, 96, 2) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rSerial, err := c.build(t).R()
			if err != nil {
				t.Fatal(err)
			}
			shared := c.build(t)
			const workers = 4
			rs := make([]*mat.Matrix, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := range rs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ws := mat.AcquireWorkspace()
					defer mat.ReleaseWorkspace(ws)
					rs[w], _, _, errs[w] = shared.rWS(ws, nil)
				}(w)
			}
			wg.Wait()
			for w, rPar := range rs {
				if errs[w] != nil {
					t.Fatal(errs[w])
				}
				for i := 0; i < rSerial.Rows(); i++ {
					for j := 0; j < rSerial.Cols(); j++ {
						s, p := rSerial.At(i, j), rPar.At(i, j)
						if math.Float64bits(s) != math.Float64bits(p) {
							t.Fatalf("solve %d: R(%d,%d) differs from the serial solve: %g vs %g", w, i, j, s, p)
						}
					}
				}
			}
		})
	}
}

// TestSparseBlocksGating checks the CSR snapshot of A0 appears exactly when
// both gates pass: large order and low density.
func TestSparseBlocksGating(t *testing.T) {
	small, _ := me2q(0.4, 1.0)
	if small.sparseA0() != nil {
		t.Fatal("order-2 process built a sparse snapshot below sparseMinOrder")
	}
	sA0 := bigProcess(t, 96).sparseA0()
	if sA0 == nil {
		t.Fatal("order-96 scaled-identity A0 should have a sparse snapshot")
	}
	if sA0.NNZ() != 96 {
		t.Fatalf("snapshot NNZ = %d, want 96", sA0.NNZ())
	}
}
