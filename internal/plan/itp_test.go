package plan

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"bgperf/internal/core"
	"bgperf/internal/workload"
)

// bisectionSteps pins n½ = ⌈log₂(w₀/tol)⌉ at DefaultTol, the iterations
// plain bisection takes across each variable's whole domain: 1/1e-4 for p,
// 0.95/1e-4 for φ, ln(1024/1e-3)/ln(1+1e-4) for α, and 64 slots for X.
var bisectionSteps = map[string]int{"p": 14, "mod": 14, "alpha": 18, "x": 6}

// frontierSLOs returns softdev at 30% load with the daemon's defaults (the
// CI smoke point's config) and n queue-length SLOs spread as the benchmark's
// plan workload spreads them, q0 + f·(q1 − q0) with f uniform in [0.2, 0.8],
// seeded; the first is the CI smoke SLO 4.2.
func frontierSLOs(t *testing.T, n int) (core.Config, []float64) {
	t.Helper()
	m, err := workload.ByName("softdev")
	if err != nil {
		t.Fatal(err)
	}
	if m, err = workload.AtUtilization(m, 0.3); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Arrival:     m,
		ServiceRate: workload.ServiceRatePerMs,
		BGBuffer:    5,
		IdleRate:    workload.ServiceRatePerMs,
	}
	q0 := solveAt(t, cfg, VarBGProb, 0).QLenFG
	q1 := solveAt(t, cfg, VarBGProb, 1).QLenFG
	rng := rand.New(rand.NewSource(1))
	slos := []float64{4.2}
	for len(slos) < n {
		slos = append(slos, q0+(0.2+0.6*rng.Float64())*(q1-q0))
	}
	return cfg, slos
}

func median(xs []int) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[len(s)/2]
}

// TestSearchNeverExceedsBisection pins the ITP step's minmax guarantee: no
// p, α, or φ search takes more iterations than bisection would, on every
// maximize.golden config and on 200 SLOs of the plan benchmark's kind,
// while the X search (still floor bisection) lands exactly where the
// golden pins it (TestMaximizeGolden checks its metrics). It also pins the
// solve counts the step buys: a median of at most 12 solves over the
// golden's feasible interior cases (18 under bisection) and at most 14
// over the 200 p plans (18).
func TestSearchNeverExceedsBisection(t *testing.T) {
	for _, v := range []Var{VarBGProb, VarBGBuffer, VarIdleRate, VarModFactor} {
		if got := BisectionSteps(v, 0); got != bisectionSteps[v.String()] {
			t.Errorf("BisectionSteps(%s) = %d, want %d", v, got, bisectionSteps[v.String()])
		}
	}
	raw, err := os.ReadFile(maximizeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var pinned []goldenCase
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	got := maximizeCases(t)
	if len(got) != len(pinned) {
		t.Fatalf("%d cases, golden has %d", len(got), len(pinned))
	}
	var interior []int
	for i, c := range got {
		if c.Plan == nil {
			continue
		}
		if c.Plan.Iterations > bisectionSteps[c.Plan.Var] {
			t.Errorf("%s: %d iterations, bisection takes %d", c.Case, c.Plan.Iterations, bisectionSteps[c.Plan.Var])
		}
		if w := pinned[i].Plan; c.Plan.Var == "x" && (w.Value != c.Plan.Value || w.Bracket != c.Plan.Bracket ||
			w.AtCap != c.Plan.AtCap || w.Iterations != c.Plan.Iterations || w.Solves != c.Plan.Solves) {
			t.Errorf("%s: X search moved: want %+v, got %+v", c.Case, *w, *c.Plan)
		}
		if !c.Plan.AtCap {
			interior = append(interior, c.Plan.Solves)
		}
	}
	if m := median(interior); m > 12 {
		t.Errorf("median %d solves over %d feasible interior golden cases, want <= 12", m, len(interior))
	}

	cfg, slos := frontierSLOs(t, 200)
	var solves []int
	for _, q := range slos {
		for _, v := range []Var{VarBGProb, VarIdleRate, VarModFactor} {
			res, err := Maximize(cfg, SLO{QLenFG: q}, Options{Var: v, Workers: 1})
			if errors.Is(err, ErrInfeasible) && v != VarBGProb {
				continue // a tight SLO fails even at the safe α or φ
			}
			if err != nil {
				t.Fatalf("var=%s qlen=%v: %v", v, q, err)
			}
			if n := bisectionSteps[v.String()]; res.Iterations > n {
				t.Errorf("var=%s qlen=%v: %d iterations, bisection takes %d", v, q, res.Iterations, n)
			}
			if v == VarBGProb {
				solves = append(solves, res.Solves)
			}
		}
	}
	sort.Ints(solves)
	if m, hi := median(solves), solves[len(solves)-1]; m > 14 || hi > 18 {
		t.Errorf("p plans over %d SLOs: median %d, max %d solves; want <= 14 and <= 18", len(solves), m, hi)
	}
}

func TestSLOSlack(t *testing.T) {
	m := core.Metrics{QLenFG: 2, WaitPFG: 0.1, RespTimeFG: 30}
	cases := []struct {
		name string
		slo  SLO
		want float64
	}{
		{"qlen only", SLO{QLenFG: 4}, -0.5},
		{"unset bounds ignored", SLO{RespTimeFG: 20}, 0.5},
		// All three set: the largest relative excess decides, here
		// RespTimeFG's 50% over WaitPFG's 25% and QLenFG's −20%.
		{"multi-bound", SLO{QLenFG: 2.5, WaitPFG: 0.08, RespTimeFG: 20}, 0.5},
		{"multi-bound feasible", SLO{QLenFG: 2.5, WaitPFG: 0.2, RespTimeFG: 60}, -0.2},
	}
	for _, c := range cases {
		if got := c.slo.slack(m); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%s: slack %v, want %v", c.name, got, c.want)
		}
		if (c.slo.slack(m) <= 0) != c.slo.Holds(m) {
			t.Errorf("%s: slack sign disagrees with Holds", c.name)
		}
	}
}

// TestSaturatedCandidateTakesMidpoint covers a φ candidate that saturates
// the model: the search records it as infeasible with zero metrics, whose
// slack (−1) contradicts the verdict, so the next step ignores the slack
// and bisects.
func TestSaturatedCandidateTakesMidpoint(t *testing.T) {
	s := &searcher{slo: SLO{QLenFG: 2}, opts: Options{Var: VarModFactor}.withDefaults()}
	safe := s.at(0.6, core.Metrics{QLenFG: 1}, true)
	bold := s.at(0.5, core.Metrics{}, false)
	if !math.IsNaN(bold.g) {
		t.Fatalf("saturated candidate slack %v, want NaN", bold.g)
	}
	prev := s.at(0.05, core.Metrics{}, false)
	mid := (0.6 + 0.5) / 2
	if got := s.next(safe, bold, prev, 10); got != mid {
		t.Errorf("candidate %v, want the midpoint %v", got, mid)
	}
	// With a finite slack at both ends the step interpolates instead.
	bold = s.at(0.5, core.Metrics{QLenFG: 2.2}, false)
	if got := s.next(safe, bold, prev, 10); got == mid || !inside(got, 0.5, 0.6) {
		t.Errorf("candidate %v, want an interior non-midpoint step", got)
	}
}
