package core

import (
	"fmt"
	"math"
	"time"

	"bgperf/internal/mat"
	"bgperf/internal/obs"
	"bgperf/internal/qbd"
)

// Metrics bundles the steady-state quantities the paper reports, plus the
// supporting rates needed to reason about them. All probabilities are
// time-stationary unless stated otherwise.
type Metrics struct {
	// QLenFG is the average number of foreground jobs in the system
	// (waiting or in service) — paper Fig. 5/9/11.
	QLenFG float64 `json:"qlenFG"`
	// QLenBG is the average number of background jobs in the system —
	// paper Fig. 8.
	QLenBG float64 `json:"qlenBG"`
	// CompBG is the completion (admission) rate of background jobs: the
	// fraction of generated BG jobs that are not dropped at a full buffer —
	// paper Fig. 7/10/12. When BGProb = 0 no BG jobs exist and CompBG is 1.
	CompBG float64 `json:"compBG"`
	// WaitPFG is the fraction of foreground jobs delayed by a background
	// job, i.e. arriving while a BG job holds the non-preemptive server —
	// paper Fig. 6/13. Arrivals are weighted by the per-phase MAP rate, not
	// by time (MMPP arrivals do not see time averages).
	WaitPFG float64 `json:"waitPFG"`

	// UtilFG is the probability a foreground job is in service; in steady
	// state it equals λ/µ.
	UtilFG float64 `json:"utilFG"`
	// UtilBG is the probability a background job is in service.
	UtilBG float64 `json:"utilBG"`
	// ProbIdleWait is the probability of an idle-wait state (BG work
	// pending, server idle, timer running).
	ProbIdleWait float64 `json:"probIdleWait"`
	// ProbEmpty is the probability of the empty system.
	ProbEmpty float64 `json:"probEmpty"`

	// ThroughputFG is the foreground completion rate µ·P(FG serving) = λ.
	ThroughputFG float64 `json:"throughputFG"`
	// ThroughputBG is the background completion rate µ·P(BG serving).
	ThroughputBG float64 `json:"throughputBG"`
	// GenRateBG is the generation rate of background jobs, µ·p·P(FG serving).
	GenRateBG float64 `json:"genRateBG"`
	// DropRateBG is the rate at which generated BG jobs are dropped.
	DropRateBG float64 `json:"dropRateBG"`
	// RespTimeFG is the mean foreground response time by Little's law.
	RespTimeFG float64 `json:"respTimeFG"`
	// RespTimeBG is the mean sojourn time of admitted background jobs
	// (admission to completion), by Little's law over the BG population.
	RespTimeBG float64 `json:"respTimeBG"`
	// DeadlineMissBG is the fraction of admitted background jobs that
	// renege — their exponential deadline (rate Config.DeadlineRate)
	// expires before their service starts. Always 0 unless BGAdmit is
	// AdmitDeadline.
	DeadlineMissBG float64 `json:"deadlineMissBG"`

	// BG2 holds the class-2 metrics of a two-class model (Config.BG2Prob >
	// 0) and is nil otherwise. The BG fields above then describe class 1;
	// WaitPFG (delayed by a BG job of either class), ProbIdleWait, and
	// ProbEmpty stay server-wide.
	BG2 *ClassMetrics `json:"bg2,omitempty"`
}

// ClassMetrics are the metrics of the class-2 (low-priority) background
// jobs of a two-class model, each defined like the class-1 field of Metrics
// it mirrors (QLen like QLenBG, Comp like CompBG, …).
type ClassMetrics struct {
	QLen       float64 `json:"qlen"`
	Comp       float64 `json:"comp"`
	Util       float64 `json:"util"`
	Throughput float64 `json:"throughput"`
	GenRate    float64 `json:"genRate"`
	DropRate   float64 `json:"dropRate"`
	RespTime   float64 `json:"respTime"`
}

// Solution is a solved model: the metrics plus access to the underlying
// stationary distribution for finer-grained queries.
type Solution struct {
	Metrics

	model *Model
	sol   *qbd.Solution

	// Geometric-tail moment vectors, fetched once from the QBD solution:
	// maskedMass probes them for every metric, so they are not re-fetched
	// (and re-copied) per call.
	tail, tailW, tailW2 []float64
}

// Solve builds the QBD, computes its stationary distribution, and assembles
// the metrics. It returns qbd.ErrUnstable when the offered foreground load
// (plus the portion of background work the system admits) saturates the
// server.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveObserved(nil)
}

// SolveObserved is Solve reporting to an optional obs.Observer (nil reverts
// to the uninstrumented fast path: no clocks, no reports, no allocations
// beyond Solve's own — pinned by TestSolveAllocBudget). With an observer it
// reports the chain-build, R-solve, boundary, and metric-extraction stage
// durations plus the convergence trace and workspace statistics collected by
// the QBD layer.
func (m *Model) SolveObserved(o obs.Observer) (*Solution, error) {
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	boundary, proc, err := m.qbdBlocks()
	if err != nil {
		return nil, err
	}
	if o != nil {
		o.StageDone(obs.StageBuild, time.Since(t0))
	}
	qsol, err := qbd.SolveObserved(boundary, proc, o)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if o != nil {
		t0 = time.Now()
	}
	s := &Solution{model: m, sol: qsol}
	s.tail = qsol.TailSum()
	s.tailW = qsol.TailWeightedSum()
	s.tailW2 = qsol.TailSquareWeightedSum()
	s.computeMetrics()
	if o != nil {
		o.StageDone(obs.StageMetrics, time.Since(t0))
	}
	return s, nil
}

// maskedMass sums stationary probability over states selected by keep,
// weighting each state's phase mass by weight (per state) — the workhorse
// behind every metric. keep receives the block and the level, which is the
// FG count y; the weight receives the same plus the phase index.
func (s *Solution) maskedMass(keep func(b block, y int) bool, weight func(b block, y, phase int) float64) float64 {
	m := s.model
	a := m.Phases()
	total := 0.0
	for j, pi := range s.sol.BoundaryPi {
		for bi, b := range m.levelBlocks(j) {
			if !keep(b, j) {
				continue
			}
			for ph := 0; ph < a; ph++ {
				total += pi[bi*a+ph] * weight(b, j, ph)
			}
		}
	}
	// Geometric tail. Weights polynomial in the level (degree ≤ 2) are
	// folded exactly via the closed-form tail moments: the quadratic
	// coefficients are recovered per block/phase by probing the weight at
	// three consecutive levels.
	first := s.sol.FirstRepLevel()
	tail, tailW, tailW2 := s.tail, s.tailW, s.tailW2
	for bi, b := range m.repLayout {
		if !keep(b, first) || !keep(b, first+1) {
			// Keeps must be level-uniform over repeating levels; every
			// metric predicate used here qualifies.
			if keep(b, first) != keep(b, first+1) {
				panic("core: non-uniform keep over repeating levels")
			}
			continue
		}
		for ph := 0; ph < a; ph++ {
			w0 := weight(b, first, ph)
			w1 := weight(b, first+1, ph)
			w2 := weight(b, first+2, ph)
			// w(k) = w0 + bk·k + ck·k² with k the offset past `first`.
			ck := (w2 - 2*w1 + w0) / 2
			bk := w1 - w0 - ck
			idx := bi*a + ph
			total += w0*tail[idx] + bk*tailW[idx] + ck*tailW2[idx]
		}
	}
	return total
}

// kindMass returns the stationary probability of a server condition.
func (s *Solution) kindMass(k Kind) float64 {
	return s.maskedMass(
		func(b block, _ int) bool { return b.kind == k },
		func(block, int, int) float64 { return 1 },
	)
}

func (s *Solution) computeMetrics() {
	m := s.model
	cfg := m.cfg
	all := func(block, int) bool { return true }

	s.UtilFG = s.kindMass(KindFG)
	s.UtilBG = s.kindMass(KindBG)
	s.ProbIdleWait = s.kindMass(KindIdle)
	s.ProbEmpty = s.kindMass(KindEmpty)

	// E[y] is the mean level; E[x] weights each state by its BG count.
	s.QLenFG = s.sol.MeanLevel()
	s.QLenBG = s.maskedMass(all, func(b block, _, _ int) float64 {
		return float64(b.x)
	})

	// BG completion rate: BG jobs are generated at FG completion epochs — at
	// per-state rate p·t_s with PH service — and dropped exactly when the
	// admission policy denies them (buffer full, or foreground backlog above
	// the util threshold), so CompBG is one minus the completion-rate-
	// weighted denial probability among FG-serving states. For exponential
	// service under AdmitAll this reduces to 1 − P(x=X | FG serving).
	// Modulated blocks (x + x2 ≥ 1) complete at φ·t_s, so their exit rates
	// carry the φ factor; with φ = 1 the unweighted fast path keeps the
	// baseline metric bit-identical.
	exits := m.exitVec
	exitWeight := func(_ block, _ int, ph int) float64 { return exits[ph] }
	if phi := cfg.ModFactor; phi != 1 {
		exitWeight = func(b block, _ int, ph int) float64 {
			if b.x+b.x2 >= 1 {
				return phi * exits[ph]
			}
			return exits[ph]
		}
	}
	complFG := s.maskedMass(func(b block, _ int) bool { return b.kind == KindFG }, exitWeight)
	// denied returns the completion-rate-weighted mass of FG-serving states
	// whose generated job of the given class would be dropped, and the
	// class's completion rate.
	denied := func(prob float64, class2 bool) (mass, comp float64) {
		if prob == 0 {
			return 0, 1
		}
		mass = s.maskedMass(
			func(b block, y int) bool {
				return b.kind == KindFG && !m.admitBG(b, y-1, class2)
			},
			exitWeight,
		)
		if complFG <= 0 {
			return mass, 1
		}
		return mass, 1 - mass/complFG
	}
	var complFGDenied float64
	complFGDenied, s.CompBG = denied(cfg.BGProb, false)

	// Fraction of FG arrivals that land during a BG service. MAP arrivals
	// occur at per-phase rate D1 row sums, so arrival-weighted masses are
	// the correct observer distribution.
	rates := m.rateVec
	arrivalWeight := func(_ block, _ int, ph int) float64 { return rates[ph] }
	lambdaEff := s.maskedMass(all, arrivalWeight)
	if lambdaEff > 0 {
		delayed := s.maskedMass(
			func(b block, _ int) bool { return b.kind == KindBG || b.kind == KindBG2 },
			arrivalWeight,
		)
		s.WaitPFG = delayed / lambdaEff
	}

	s.ThroughputFG = complFG
	s.ThroughputBG = s.maskedMass(func(b block, _ int) bool { return b.kind == KindBG }, exitWeight)
	s.GenRateBG = cfg.BGProb * complFG
	s.DropRateBG = cfg.BGProb * complFGDenied
	// Little's law against the solved effective throughput, not the nominal
	// arrival rate: the two agree only up to solver round-off, and using the
	// nominal rate leaves RespTimeFG·ThroughputFG ≠ QLenFG by that error.
	if complFG > 0 {
		s.RespTimeFG = s.QLenFG / complFG
	}
	admitted := s.GenRateBG - s.DropRateBG
	if admitted > 0 {
		s.RespTimeBG = s.QLenBG / admitted
	}
	if cfg.DeadlineRate > 0 && admitted > 0 {
		// Renege flow: each waiting BG job (x minus the one in BG service)
		// abandons at rate δ, so the loss rate is δ·E[waiting BG jobs] and
		// the miss fraction is that rate over the admission rate.
		waiting := s.maskedMass(all, func(b block, _, _ int) float64 {
			w := b.x
			if b.kind == KindBG {
				w--
			}
			return float64(w)
		})
		s.DeadlineMissBG = cfg.DeadlineRate * waiting / admitted
	}
	if cfg.BG2Prob > 0 {
		c := &ClassMetrics{
			QLen:       s.maskedMass(all, func(b block, _, _ int) float64 { return float64(b.x2) }),
			Util:       s.kindMass(KindBG2),
			Throughput: s.maskedMass(func(b block, _ int) bool { return b.kind == KindBG2 }, exitWeight),
			GenRate:    cfg.BG2Prob * complFG,
		}
		var drop float64
		drop, c.Comp = denied(cfg.BG2Prob, true)
		c.DropRate = cfg.BG2Prob * drop
		if admitted := c.GenRate - c.DropRate; admitted > 0 {
			c.RespTime = c.QLen / admitted
		}
		s.BG2 = c
	}
}

// FGQueueMoment2 returns E[y²], the second moment of the foreground
// population.
func (s *Solution) FGQueueMoment2() float64 {
	return s.maskedMass(
		func(block, int) bool { return true },
		func(_ block, y, _ int) float64 {
			return float64(y * y)
		},
	)
}

// FGQueueStdDev returns the standard deviation of the foreground population.
func (s *Solution) FGQueueStdDev() float64 {
	v := s.FGQueueMoment2() - s.QLenFG*s.QLenFG
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// TotalMass returns the stationary mass (≈1); exposed for validation.
func (s *Solution) TotalMass() float64 { return s.sol.TotalMass() }

// KindProb returns the stationary probability of a server condition.
func (s *Solution) KindProb(k Kind) float64 { return s.kindMass(k) }

// BGOccupancyDist returns P(x = v) for v = 0..X: the distribution of the
// number of background jobs in the system.
func (s *Solution) BGOccupancyDist() []float64 {
	x := s.model.cfg.BGBuffer
	dist := make([]float64, x+1)
	for v := 0; v <= x; v++ {
		v := v
		dist[v] = s.maskedMass(
			func(b block, _ int) bool { return b.x == v },
			func(block, int, int) float64 { return 1 },
		)
	}
	return dist
}

// FGQueueDist returns P(y = n) for n = 0..maxN: the distribution of the
// number of foreground jobs in the system, which is the level mass.
func (s *Solution) FGQueueDist(maxN int) []float64 {
	dist := make([]float64, maxN+1)
	for j, pi := range s.sol.BoundaryPi {
		if j <= maxN {
			dist[j] = mat.Sum(pi)
		}
	}
	// Repeating levels: walk π·R^k, ping-ponging two vector buffers.
	v := s.sol.LevelPi(s.sol.FirstRepLevel())
	w := make([]float64, len(v))
	for y := s.sol.FirstRepLevel(); y <= maxN; y++ {
		dist[y] = mat.Sum(v)
		s.sol.R.VecMulInto(w, v)
		v, w = w, v
	}
	return dist
}

// QBD exposes the underlying stationary solution for advanced inspection.
func (s *Solution) QBD() *qbd.Solution { return s.sol }

// TailDecayRate returns the caudal characteristic sp(R): asymptotically
// P(population = n+1)/P(population = n) → sp(R), so it bounds how fast the
// queue tail thins. Values near 1 are the signature of strongly dependent
// arrivals.
func (s *Solution) TailDecayRate() float64 {
	return s.sol.SpectralRadius()
}

// maxQuantileDoublings bounds FGQueueQuantile's squarings of R: the
// quantile must lie below FirstRepLevel + 2^maxQuantileDoublings.
const maxQuantileDoublings = 62

// FGQueueQuantile returns the smallest n with P(y ≤ n) ≥ q, for q in (0,1).
// It reads the boundary levels directly. Past them, P(y ≥ first+k) =
// Σ_{j≥k} RepPi·R^j = tail·R^k, because R commutes with (I−R)⁻¹, so the
// repeating level is found by binary descent over the squarings R^(2^j):
// O(log n) matrix products instead of a walk over n levels.
func (s *Solution) FGQueueQuantile(q float64) (int, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("%w: quantile %g outside (0,1)", ErrConfig, q)
	}
	cum := 0.0
	for j, pi := range s.sol.BoundaryPi {
		if cum += mat.Sum(pi); cum >= q {
			return j, nil
		}
	}
	// P(y ≤ first+k) = cum + Σtail − Σ(tail·R^(k+1)): the answer is
	// first+k for the smallest k with Σ(tail·R^(k+1)) ≤ limit. At R^0,
	// Σtail > limit because cum < q.
	limit := cum + mat.Sum(s.tail) - q
	above := func(v []float64) bool { return mat.Sum(v) > limit }
	pows := []*mat.Matrix{s.sol.R} // pows[j] = R^(2^j)
	v := make([]float64, len(s.tail))
	for {
		r := pows[len(pows)-1]
		if !above(r.VecMulInto(v, s.tail)) {
			break
		}
		if len(pows) == maxQuantileDoublings {
			return 0, fmt.Errorf("%w: quantile %g beyond 2^%d jobs (near-critical load)", ErrConfig, q, maxQuantileDoublings)
		}
		pows = append(pows, r.Mul(r))
	}
	// Binary descent keeps Σ(tail·R^k) > limit and adds the largest powers
	// that preserve it; k+1 then first reaches the limit.
	k := 0
	cur := append([]float64(nil), s.tail...)
	for j := len(pows) - 2; j >= 0; j-- {
		pows[j].VecMulInto(v, cur)
		if above(v) {
			cur, v = v, cur
			k += 1 << j
		}
	}
	return s.sol.FirstRepLevel() + k, nil
}
