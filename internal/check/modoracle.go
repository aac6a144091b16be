package check

import (
	"fmt"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
)

// Scenario oracles (PR 10): exact degenerate collapses and comparative
// statics of the capacity-modulated model and the smart admission policies.
// Like the other oracle suites, the identities are exact in the model; the
// tolerance absorbs solver round-off only.

// modOracleConfig is the shared base configuration of the scenario oracles:
// a genuinely bursty MMPP at moderate load, a nontrivial buffer, and an
// idle-wait rate fast enough that BG work is regularly present.
func modOracleConfig() (core.Config, error) {
	arr, err := arrival.MMPP2(0.2, 0.3, 0.8, 0.2)
	if err != nil {
		return core.Config{}, err
	}
	// Load 0.3 keeps the φ sweep down to 0.5 strictly stable: even with BG
	// work present all the time the modulated load λ/(φµ) stays at 0.6.
	arr, err = arr.WithRate(0.3)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Arrival: arr, ServiceRate: 1, BGProb: 0.4, BGBuffer: 4, IdleRate: 1}, nil
}

// metricsPairs lists every metric of a solution for exact comparisons.
func metricsPairs(a, b core.Metrics) []struct {
	name     string
	got, ref float64
} {
	return []struct {
		name     string
		got, ref float64
	}{
		{"QLenFG", a.QLenFG, b.QLenFG},
		{"QLenBG", a.QLenBG, b.QLenBG},
		{"CompBG", a.CompBG, b.CompBG},
		{"WaitPFG", a.WaitPFG, b.WaitPFG},
		{"UtilFG", a.UtilFG, b.UtilFG},
		{"UtilBG", a.UtilBG, b.UtilBG},
		{"ProbIdleWait", a.ProbIdleWait, b.ProbIdleWait},
		{"ProbEmpty", a.ProbEmpty, b.ProbEmpty},
		{"ThroughputFG", a.ThroughputFG, b.ThroughputFG},
		{"ThroughputBG", a.ThroughputBG, b.ThroughputBG},
		{"GenRateBG", a.GenRateBG, b.GenRateBG},
		{"DropRateBG", a.DropRateBG, b.DropRateBG},
		{"RespTimeFG", a.RespTimeFG, b.RespTimeFG},
		{"RespTimeBG", a.RespTimeBG, b.RespTimeBG},
		{"DeadlineMissBG", a.DeadlineMissBG, b.DeadlineMissBG},
	}
}

// modFactorDegenerate checks the Marin–Mitrani-style degenerate collapse:
// φ = 1 with blind admission IS the baseline model — the same chain, the
// same cache key, and (because the modulated kernels alias the unmodulated
// ones at φ = 1) bit-for-bit the same solution.
func (vs *violations) modFactorDegenerate() {
	vs.caseName = "mod-degenerate[phi=1]"
	base, err := modOracleConfig()
	if err != nil {
		vs.assert("modfactor-degenerate", err.Error(), false)
		return
	}
	ref, err := solveConfig(base)
	if err != nil {
		vs.assert("modfactor-degenerate", err.Error(), false)
		return
	}
	mod := base
	mod.ModFactor = 1
	mod.BGAdmit = core.AdmitAll
	sol, err := solveConfig(mod)
	if err != nil {
		vs.assert("modfactor-degenerate", fmt.Sprintf("solve failed: %v", err), false)
		return
	}
	for _, p := range metricsPairs(sol, ref) {
		vs.add("modfactor-degenerate", p.name+" must be bit-identical to the baseline at φ=1",
			p.got, p.ref, 0)
	}
	kBase, err := core.CacheKey(base)
	if err != nil {
		vs.assert("modfactor-degenerate", fmt.Sprintf("baseline cache key: %v", err), false)
		return
	}
	kMod, err := core.CacheKey(mod)
	if err != nil {
		vs.assert("modfactor-degenerate", fmt.Sprintf("modulated cache key: %v", err), false)
		return
	}
	vs.assert("modfactor-degenerate-key",
		fmt.Sprintf("cache key must be identical at φ=1: %s vs %s", kMod, kBase), kMod == kBase)
}

// modFactorMonotonicity checks the comparative statics of modulation:
// slowing the server while BG work is present (smaller φ) can only lengthen
// the FG queue.
func (vs *violations) modFactorMonotonicity() {
	vs.caseName = "mod-monotone[phi-sweep]"
	base, err := modOracleConfig()
	if err != nil {
		vs.assert("modfactor-monotone", err.Error(), false)
		return
	}
	phis := []float64{0.5, 0.65, 0.8, 0.9, 1}
	prevQ := -1.0
	for i, phi := range phis {
		cfg := base
		cfg.ModFactor = phi
		sol, err := solveConfig(cfg)
		if err != nil {
			vs.assert("modfactor-monotone", fmt.Sprintf("solve failed at φ=%g: %v", phi, err), false)
			break
		}
		if i > 0 {
			vs.assert("qlenFG-monotone-phi",
				fmt.Sprintf("QLenFG rose from %.12g to %.12g as φ rose to %g", prevQ, sol.QLenFG, phi),
				sol.QLenFG <= prevQ+invariantTol)
		}
		prevQ = sol.QLenFG
	}
}

// utilThresholdDegenerate checks that a util-threshold policy whose K
// exceeds any reachable FG queue position within the modelled levels is
// blind admission: with a huge threshold nothing is ever denied, and the
// solved metrics collapse to AdmitAll at solver precision.
func (vs *violations) utilThresholdDegenerate() {
	vs.caseName = "util-degenerate[K=40]"
	base, err := modOracleConfig()
	if err != nil {
		vs.assert("util-degenerate", err.Error(), false)
		return
	}
	ref, err := solveConfig(base)
	if err != nil {
		vs.assert("util-degenerate", err.Error(), false)
		return
	}
	huge := base
	huge.BGAdmit = core.AdmitUtilThreshold
	huge.FGThreshold = 40
	sol, err := solveConfig(huge)
	if err != nil {
		vs.assert("util-degenerate", fmt.Sprintf("solve failed: %v", err), false)
		return
	}
	for _, p := range metricsPairs(sol, ref) {
		vs.add("util-degenerate", p.name+" must match blind admission under a never-binding threshold",
			p.got, p.ref, oracleTol)
	}
}

// deadlineMonotonicity checks the comparative statics of reneging: a faster
// deadline clock can only raise the miss fraction and lower the BG
// completion throughput.
func (vs *violations) deadlineMonotonicity() {
	vs.caseName = "deadline-monotone[delta-sweep]"
	base, err := modOracleConfig()
	if err != nil {
		vs.assert("deadline-monotone", err.Error(), false)
		return
	}
	deltas := []float64{0.1, 0.3, 1, 3}
	prevMiss, prevTput := -1.0, -1.0
	for i, delta := range deltas {
		cfg := base
		cfg.BGAdmit = core.AdmitDeadline
		cfg.DeadlineRate = delta
		sol, err := solveConfig(cfg)
		if err != nil {
			vs.assert("deadline-monotone", fmt.Sprintf("solve failed at δ=%g: %v", delta, err), false)
			break
		}
		vs.assert("deadline-miss-positive",
			fmt.Sprintf("DeadlineMissBG = %g must be positive at δ=%g", sol.DeadlineMissBG, delta),
			sol.DeadlineMissBG > 0)
		if i > 0 {
			vs.assert("deadline-miss-monotone",
				fmt.Sprintf("DeadlineMissBG fell from %.12g to %.12g as δ rose to %g", prevMiss, sol.DeadlineMissBG, delta),
				sol.DeadlineMissBG >= prevMiss-invariantTol)
			vs.assert("bg-throughput-monotone-delta",
				fmt.Sprintf("ThroughputBG rose from %.12g to %.12g as δ rose to %g", prevTput, sol.ThroughputBG, delta),
				sol.ThroughputBG <= prevTput+invariantTol)
		}
		prevMiss, prevTput = sol.DeadlineMissBG, sol.ThroughputBG
	}
}

// scenarioOracles runs every scenario-expansion oracle suite.
func (vs *violations) scenarioOracles() {
	vs.modFactorDegenerate()
	vs.modFactorMonotonicity()
	vs.utilThresholdDegenerate()
	vs.deadlineMonotonicity()
}
