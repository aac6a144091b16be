// Package check is the cross-model conformance harness: it generates random
// valid model configurations and verifies that the repository's three
// independent implementations of the paper's model — the matrix-geometric
// analytic solver (internal/core), the event-driven simulator (internal/sim),
// and the closed-form reference queues (internal/refqueue) — agree with each
// other and with exact structural invariants.
//
// Three layers of checking, in increasing strictness:
//
//   - Statistical agreement: for every generated configuration the analytic
//     solution of the paper metrics (QLenFG, WaitPFG, CompBG, QLenBG, and
//     the scenario extension's DeadlineMissBG) must fall inside a
//     confidence-calibrated band around the replicated simulation estimate.
//   - Structural invariants, at numerical precision, on every solved point:
//     stationary mass is 1, state-kind probabilities partition, the busy
//     probability equals the offered load ρ = λ/µ, foreground throughput
//     equals the arrival rate, BG flow balances (throughput = generation −
//     drops), CompBG is the surviving-flow fraction, and both classes obey
//     Little's law.
//   - Exact oracles at limits: p → 0 collapses to an MMPP/M/1 queue whose
//     solution must be invariant to the pruned BG parameters and, with
//     Poisson or equal-rate-MMPP input, must match refqueue's M/M/1 closed
//     forms to 1e-9; QLenFG and CompBG must be monotone in p and X.
//
// The harness runs as `bgperf check`, as package tests, and as native fuzz
// targets (FuzzSolveVsSim, FuzzCacheKeyRoundTrip).
package check

import (
	"fmt"
	"math"

	"bgperf/internal/core"
)

// invariantTol is the absolute tolerance for structural identities that hold
// exactly in the model and are limited only by solver round-off.
const invariantTol = 1e-9

// Violation records one failed conformance check.
type Violation struct {
	// Check names the violated property (e.g. "littles-law-fg").
	Check string `json:"check"`
	// Case identifies the configuration the check ran on.
	Case string `json:"case"`
	// Detail is a human-readable account of the failure.
	Detail string `json:"detail"`
	// Got and Want are the two sides of the violated identity; Diff is
	// |Got−Want|.
	Got  float64 `json:"got"`
	Want float64 `json:"want"`
	Diff float64 `json:"diff"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %s (got %.12g, want %.12g, diff %.3g)",
		v.Check, v.Case, v.Detail, v.Got, v.Want, v.Diff)
}

// violations collects the failures of the checks run through it, labelled
// with the current case, and counts every check as it runs, so a report's
// invariant count is the number of checks that actually ran.
type violations struct {
	caseName string
	list     []Violation
	checks   int
}

// add checks that got is within tol of want.
func (vs *violations) add(check, detail string, got, want, tol float64) {
	vs.checks++
	diff := math.Abs(got - want)
	if diff <= tol && !math.IsNaN(got) && !math.IsNaN(want) {
		return
	}
	vs.list = append(vs.list, Violation{
		Check: check, Case: vs.caseName, Detail: detail,
		Got: got, Want: want, Diff: diff,
	})
}

// assert checks that ok holds.
func (vs *violations) assert(check, detail string, ok bool) {
	vs.checks++
	if ok {
		return
	}
	vs.list = append(vs.list, Violation{Check: check, Case: vs.caseName, Detail: detail})
}

// solvedPoint verifies every structural invariant of one analytic solution
// of the current case. The identities hold exactly in the model; tolerances
// only absorb floating-point round-off from the matrix-geometric solve.
func (vs *violations) solvedPoint(model *core.Model, sol *core.Solution) {
	m := sol.Metrics
	cfg := model.Config()

	// Stationary distribution: total mass 1, state kinds partition it.
	vs.add("total-mass", "stationary probabilities must sum to 1",
		sol.TotalMass(), 1, invariantTol)
	kindSum := sol.KindProb(core.KindEmpty) + sol.KindProb(core.KindFG) +
		sol.KindProb(core.KindBG) + sol.KindProb(core.KindIdle)
	vs.add("kind-partition", "empty/fg/bg/idle-wait probabilities must partition the mass",
		kindSum, 1, invariantTol)
	vs.add("kind-metrics", "metric probabilities must partition the mass",
		m.ProbEmpty+m.UtilFG+m.UtilBG+m.ProbIdleWait, 1, invariantTol)

	// Rate identities. In steady state the server is FG-busy exactly a
	// fraction ρ = λ/µ of the time — when capacity is modulated (φ < 1) the
	// server is slower while BG work is present, so FG-busy time can only
	// grow and the exact identity relaxes to a lower bound. The FG
	// completion rate equals the arrival rate either way (nothing is dropped
	// or lost in the FG class, whatever the admission policy does to BG).
	lambda := cfg.Arrival.Rate()
	if cfg.ModFactor == 1 {
		vs.add("busy-probability", "P(FG in service) must equal the offered load λ/µ",
			m.UtilFG, model.FGUtilization(), invariantTol)
	} else {
		vs.assert("busy-probability-modulated",
			fmt.Sprintf("P(FG in service) = %g must be at least the offered load %g under modulation",
				m.UtilFG, model.FGUtilization()),
			m.UtilFG >= model.FGUtilization()-invariantTol)
	}
	vs.add("fg-throughput", "FG completion rate must equal the arrival rate",
		m.ThroughputFG, lambda, invariantTol)

	// BG flow balance: completions are exactly the admitted jobs that did
	// not renege, and CompBG is the non-dropped fraction of generated flow.
	// The renege rate is DeadlineMissBG · admission rate (0 except under the
	// deadline policy).
	admitted := m.GenRateBG - m.DropRateBG
	vs.add("bg-flow-balance", "BG throughput must equal generation minus drops minus reneges",
		m.ThroughputBG, admitted*(1-m.DeadlineMissBG), invariantTol)
	if m.GenRateBG > 0 {
		vs.add("compBG-flow", "CompBG must be the non-dropped fraction of generated flow",
			m.CompBG, 1-m.DropRateBG/m.GenRateBG, invariantTol)
	} else {
		vs.add("compBG-degenerate", "CompBG must be 1 when no BG jobs are generated",
			m.CompBG, 1, 0)
	}

	// Little's law for both classes. The FG population sees arrival rate λ;
	// the BG population sees the admission rate (which exceeds the
	// completion rate exactly by the renege flow under the deadline policy).
	vs.add("littles-law-fg", "QLenFG must equal RespTimeFG × FG throughput",
		m.RespTimeFG*m.ThroughputFG, m.QLenFG, invariantTol)
	vs.add("littles-law-bg", "QLenBG must equal RespTimeBG × BG admission rate",
		m.RespTimeBG*admitted, m.QLenBG, invariantTol)

	// DeadlineMissBG is a fraction of admitted flow under the deadline
	// policy and identically zero under every other policy.
	if cfg.BGAdmit == core.AdmitDeadline {
		vs.assert("deadline-miss-range",
			fmt.Sprintf("DeadlineMissBG = %g must lie in [0,1]", m.DeadlineMissBG),
			m.DeadlineMissBG >= -invariantTol && m.DeadlineMissBG <= 1+invariantTol)
	} else {
		vs.add("deadline-miss-degenerate", "DeadlineMissBG must be exactly 0 off the deadline policy",
			m.DeadlineMissBG, 0, 0)
	}

	// Ranges: probabilities and ratios live in [0,1], queue lengths and
	// rates are nonnegative and finite, and the BG queue fits its buffer
	// plus the job in service.
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"CompBG", m.CompBG}, {"WaitPFG", m.WaitPFG}, {"UtilFG", m.UtilFG},
		{"UtilBG", m.UtilBG}, {"ProbIdleWait", m.ProbIdleWait}, {"ProbEmpty", m.ProbEmpty},
	} {
		vs.assert("probability-range", fmt.Sprintf("%s = %g must lie in [0,1]", p.name, p.v),
			p.v >= -invariantTol && p.v <= 1+invariantTol)
	}
	for _, n := range []struct {
		name string
		v    float64
	}{
		{"QLenFG", m.QLenFG}, {"QLenBG", m.QLenBG}, {"ThroughputFG", m.ThroughputFG},
		{"ThroughputBG", m.ThroughputBG}, {"GenRateBG", m.GenRateBG},
		{"DropRateBG", m.DropRateBG}, {"RespTimeFG", m.RespTimeFG}, {"RespTimeBG", m.RespTimeBG},
	} {
		vs.assert("nonnegative-finite", fmt.Sprintf("%s = %g must be nonnegative and finite", n.name, n.v),
			n.v >= -invariantTol && !math.IsInf(n.v, 0) && !math.IsNaN(n.v))
	}
	vs.assert("bg-buffer-bound",
		fmt.Sprintf("QLenBG = %g must not exceed buffer+1 = %d", m.QLenBG, cfg.BGBuffer+1),
		m.QLenBG <= float64(cfg.BGBuffer)+1+invariantTol)
}
