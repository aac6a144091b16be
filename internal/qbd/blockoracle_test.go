package qbd_test

import (
	"fmt"
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/check"
	"bgperf/internal/core"
	"bgperf/internal/mat"
	"bgperf/internal/qbd"
	"bgperf/internal/serve"
	"bgperf/internal/workload"
)

// blockCase is one model whose repeating level the block tests inspect.
type blockCase struct {
	name string
	cfg  core.Config
}

// blockCases gathers the chains users solve: a subset of the paper's grid,
// the 32 large-state shapes of the daemon's sweep benchmark (deadline and
// util-threshold admission included), util-threshold admission at K = 0 and
// K = 3, the configurations `bgperf check -n 64 -seed 1` generates, and
// those of core's testdata/twoclass.golden.
func blockCases(t *testing.T) []blockCase {
	t.Helper()
	var reqs []blockCase
	add := func(name string, r serve.SolveRequest) {
		cfg, err := r.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reqs = append(reqs, blockCase{name, cfg})
	}
	for _, w := range []string{"email", "softdev", "useraccounts"} {
		for _, u := range []float64{0.1, 0.5, 0.8} {
			for _, p := range []float64{0.05, 0.3, 0.6} {
				add(fmt.Sprintf("paper/%s/u=%g/p=%g", w, u, p),
					serve.SolveRequest{Workload: w, Utilization: u, BGProb: p})
			}
		}
	}
	buf := func(x int) *int { return &x }
	for _, b := range []serve.SolveRequest{{Workload: "softdev", Utilization: 0.3}, {Workload: "email", Utilization: 0.2}} {
		for _, p := range []float64{0.3, 0.6} {
			for _, x := range []int{10, 20, 30, 40, 50} {
				r := b
				r.BGProb, r.BGBuffer = p, buf(x)
				add(fmt.Sprintf("large/%s/p=%g/X=%d", b.Workload, p, x), r)
			}
			for _, ph := range []serve.SolveRequest{{ServiceSCV: 0.5}, {IdleSCV: 4}} {
				r := b
				r.BGProb, r.BGBuffer = p, buf(10)
				r.ServiceSCV, r.IdleSCV = ph.ServiceSCV, ph.IdleSCV
				add(fmt.Sprintf("large/%s/p=%g/svc=%g/idle=%g", b.Workload, p, ph.ServiceSCV, ph.IdleSCV), r)
			}
		}
	}
	for _, x := range []int{10, 20} {
		add(fmt.Sprintf("large/deadline/X=%d", x), serve.SolveRequest{
			Workload: "softdev", Utilization: 0.3, BGProb: 0.6, BGBuffer: buf(x),
			ModFactor: 0.7, BGAdmit: "deadline", DeadlineRate: 0.4,
		})
		add(fmt.Sprintf("large/util-threshold/X=%d", x), serve.SolveRequest{
			Workload: "softdev", Utilization: 0.3, BGProb: 0.6, BGBuffer: buf(x),
			BGAdmit: "util-threshold", FGThreshold: 3,
		})
	}
	add("util-threshold/K=0", serve.SolveRequest{Workload: "softdev", Utilization: 0.3, BGProb: 0.6, BGAdmit: "util-threshold"})
	add("util-threshold/K=3", serve.SolveRequest{Workload: "email", Utilization: 0.3, BGProb: 0.6, BGAdmit: "util-threshold", FGThreshold: 3})
	gen := check.NewGenerator(1)
	for i := 0; i < 64; i++ {
		c := gen.Next()
		reqs = append(reqs, blockCase{"check/" + c.Name, c.Cfg})
	}
	return append(reqs, twoClassGoldenCases(t)...)
}

// twoClassGoldenCases repeats the configurations of core's
// testdata/twoclass.golden: the nine points of experiment E-1 plus a
// per-period, an MMPP and an asymmetric-buffer model.
func twoClassGoldenCases(t *testing.T) []blockCase {
	t.Helper()
	must := func(m *arrival.MAP, err error) *arrival.MAP {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cfg := func(arr *arrival.MAP, mu, p1, p2 float64, x1, x2 int, alpha float64) core.Config {
		return core.Config{
			Arrival: arr, ServiceRate: mu,
			BGProb: p1, BG2Prob: p2, BGBuffer: x1, BG2Buffer: x2,
			IdleRate: alpha,
		}
	}
	soft := must(workload.SoftwareDevelopment())
	var cases []blockCase
	for _, util := range []float64{0.10, 0.20, 0.30} {
		scaled := must(workload.AtUtilization(soft, util))
		for _, sp := range []struct {
			name   string
			p1, p2 float64
		}{{"25/75", 0.15, 0.45}, {"50/50", 0.30, 0.30}, {"75/25", 0.45, 0.15}} {
			cases = append(cases, blockCase{fmt.Sprintf("twoclass/extension-%.2f-%s", util, sp.name),
				cfg(scaled, workload.ServiceRatePerMs, sp.p1, sp.p2, 5, 5, workload.ServiceRatePerMs)})
		}
	}
	perPeriod := cfg(must(arrival.Poisson(1)), 2, 0.5, 0.4, 3, 3, 0.8)
	perPeriod.IdlePolicy = core.IdleWaitPerPeriod
	mmpp := must(must(arrival.MMPP2(0.01, 0.02, 2, 0.1)).WithRate(0.35 * 2))
	return append(cases,
		blockCase{"twoclass/per-period", perPeriod},
		blockCase{"twoclass/mmpp", cfg(mmpp, 2, 0.4, 0.3, 3, 3, 1)},
		blockCase{"twoclass/asymmetric-buffers", cfg(must(arrival.Poisson(1)), 2, 0.2, 0.5, 3, 1, 2)},
	)
}

// process builds the repeating level of c's chain.
func (c blockCase) process(t *testing.T) *qbd.Process {
	t.Helper()
	_, p := c.chain(t)
	return p
}

// chain builds the boundary and the repeating level of c's chain.
func (c blockCase) chain(t *testing.T) (qbd.Boundary, *qbd.Process) {
	t.Helper()
	m, err := core.NewModel(c.cfg)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	b, p, err := m.ChainQBD()
	if err != nil {
		t.Fatalf("ChainQBD: %v", err)
	}
	return b, p
}

// TestBlockGRMatchesWholeCyclicReduction pins the block solve to the
// whole-matrix cyclic reduction it replaced: on every chain of blockCases,
// each entry of G and of R agrees to 1e-12 relative, above a rounding floor
// of ε·‖X‖∞/(1 − sp(R)). The floor covers two things. Entries the block
// solve leaves structurally zero come out of the whole-matrix reduction as
// rounding noise (1e-23 and below). And the email points, whose bursty MMPP
// puts sp(R) within 6e-6 of 1, are conditioned so that the whole-matrix
// reduction itself lies up to 1.6e-11 from the logarithmic-reduction oracle
// there, farther than the block solve does.
func TestBlockGRMatchesWholeCyclicReduction(t *testing.T) {
	const (
		tol = 1e-12
		eps = 0x1p-52
	)
	maxKron := 0
	for _, c := range blockCases(t) {
		t.Run(c.name, func(t *testing.T) {
			p := c.process(t)
			if stable, err := p.Stable(); err != nil || !stable {
				t.Skipf("not positive recurrent (err %v)", err)
			}
			g, r, err := p.BlockGR()
			if err != nil {
				t.Fatalf("block solve: %v", err)
			}
			wg, wr, err := p.WholeGR()
			if err != nil {
				t.Fatalf("whole-matrix oracle: %v", err)
			}
			gap := 1 - mat.SpectralRadius(wr, 1e-14, 100000)
			for _, x := range []struct {
				name      string
				got, want *mat.Matrix
			}{{"G", g, wg}, {"R", r, wr}} {
				floor := eps * x.want.NormInf() / gap
				for i := 0; i < x.got.Rows(); i++ {
					for j := 0; j < x.got.Cols(); j++ {
						a, b := x.got.At(i, j), x.want.At(i, j)
						if d := math.Abs(a - b); d > tol*math.Max(math.Abs(a), math.Abs(b))+floor {
							t.Errorf("%s(%d,%d) = %g, whole-matrix %g: difference %.3g > %g relative + %.3g",
								x.name, i, j, a, b, d, tol, floor)
						}
					}
				}
			}
			blocks := p.PhaseBlocks()
			for i, bi := range blocks {
				for _, bj := range blocks[i+1:] {
					maxKron = max(maxKron, len(bi)*len(bj))
				}
			}
		})
	}
	t.Logf("largest Kronecker order: %d", maxKron)
}

// TestPhaseBlocksTriangular checks the phase partition on every chain of
// blockCases: the blocks partition the phases, each lists its phases
// ascending and is strongly connected, and no A_k has a nonzero below its
// diagonal blocks — every edge between blocks points to a later one.
func TestPhaseBlocksTriangular(t *testing.T) {
	for _, c := range blockCases(t) {
		t.Run(c.name, func(t *testing.T) {
			p := c.process(t)
			blocks := p.PhaseBlocks()
			blockOf := make([]int, p.Order())
			for i := range blockOf {
				blockOf[i] = -1
			}
			for b, ph := range blocks {
				for k, v := range ph {
					if blockOf[v] != -1 {
						t.Fatalf("phase %d in blocks %d and %d", v, blockOf[v], b)
					}
					blockOf[v] = b
					if k > 0 && ph[k-1] >= v {
						t.Fatalf("block %d phases %v not ascending", b, ph)
					}
				}
			}
			for v, b := range blockOf {
				if b == -1 {
					t.Fatalf("phase %d in no block", v)
				}
			}
			a := []*mat.Matrix{p.A0(), p.A1(), p.A2()}
			for k, ak := range a {
				for i := 0; i < ak.Rows(); i++ {
					for j := 0; j < ak.Cols(); j++ {
						if ak.At(i, j) != 0 && blockOf[i] > blockOf[j] {
							t.Fatalf("A%d(%d,%d) = %g lies below the diagonal blocks (block %d -> %d)",
								k, i, j, ak.At(i, j), blockOf[i], blockOf[j])
						}
					}
				}
			}
			sum := a[0].AddMat(a[1]).AddInPlace(a[2])
			for b, ph := range blocks {
				if !stronglyConnected(sum, ph) {
					t.Fatalf("block %d (%v) is not strongly connected", b, ph)
				}
			}
		})
	}
}

// stronglyConnected reports whether every phase of ph reaches every other
// along positive off-diagonal entries of a that stay inside ph: a forward
// and a backward search from the first phase must both cover ph.
func stronglyConnected(a *mat.Matrix, ph []int) bool {
	for _, forward := range []bool{true, false} {
		seen := map[int]bool{ph[0]: true}
		queue := []int{ph[0]}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range ph {
				rate := a.At(v, w)
				if !forward {
					rate = a.At(w, v)
				}
				if w != v && rate > 0 && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(seen) != len(ph) {
			return false
		}
	}
	return true
}
