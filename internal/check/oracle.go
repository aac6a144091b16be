package check

import (
	"fmt"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/refqueue"
)

// oracleTol is the tolerance for limit collapses against closed forms. The
// identities are exact; the tolerance absorbs solver round-off only.
const oracleTol = 1e-9

// mm1Collapse checks the exact-oracle limit: with p = 0 the model is the
// arrival process feeding an M/1 server, and with Poisson or equal-rate-MMPP
// arrivals (where the modulation is irrelevant) it must reproduce refqueue's
// M/M/1 closed forms to solver precision — queue length ρ/(1−ρ), response
// time 1/(µ−λ), empty probability 1−ρ.
func (vs *violations) mm1Collapse() {
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		for _, mk := range []struct {
			kind  string
			build func() (*arrival.MAP, error)
		}{
			{"poisson", func() (*arrival.MAP, error) { return arrival.Poisson(rho) }},
			// Equal per-state rates: the phase process modulates nothing.
			{"equal-rate-mmpp2", func() (*arrival.MAP, error) { return arrival.MMPP2(0.3, 0.7, rho, rho) }},
		} {
			vs.caseName = fmt.Sprintf("mm1[%s,rho=%.1f]", mk.kind, rho)
			arr, err := mk.build()
			if err != nil {
				vs.assert("mm1-collapse", fmt.Sprintf("building arrival process: %v", err), false)
				continue
			}
			m, err := solveConfig(core.Config{Arrival: arr, ServiceRate: 1})
			if err != nil {
				vs.assert("mm1-collapse", fmt.Sprintf("solve failed: %v", err), false)
				continue
			}
			wantQ, err := refqueue.MM1QueueLength(rho)
			if err != nil {
				vs.assert("mm1-collapse", fmt.Sprintf("refqueue: %v", err), false)
				continue
			}
			wantW, err := refqueue.MM1Wait(rho, 1)
			if err != nil {
				vs.assert("mm1-collapse", fmt.Sprintf("refqueue: %v", err), false)
				continue
			}
			vs.add("mm1-qlen", "QLenFG must match the M/M/1 closed form ρ/(1−ρ)", m.QLenFG, wantQ, oracleTol)
			// MM1Wait is the queueing wait W_q; the response time adds the
			// mean service time 1/µ = 1.
			vs.add("mm1-resptime", "RespTimeFG must match the M/M/1 closed form W_q + 1/µ", m.RespTimeFG, wantW+1, oracleTol)
			vs.add("mm1-empty", "ProbEmpty must equal 1−ρ", m.ProbEmpty, 1-rho, oracleTol)
			vs.add("mm1-util", "UtilFG must equal ρ", m.UtilFG, rho, oracleTol)
			vs.add("mm1-compBG", "CompBG must be exactly 1 with no BG work", m.CompBG, 1, 0)
			for _, z := range []struct {
				name string
				v    float64
			}{{"WaitPFG", m.WaitPFG}, {"QLenBG", m.QLenBG}, {"UtilBG", m.UtilBG}, {"ProbIdleWait", m.ProbIdleWait}} {
				vs.add("mm1-no-bg", z.name+" must be exactly 0 with no BG work", z.v, 0, 0)
			}
		}
	}
}

// pZeroPruning checks that p → 0 prunes the background dimension exactly:
// for a bursty (genuinely modulated) MMPP the solved metrics must be
// bit-stable against every BG parameter — buffer size, idle rate, idle
// policy — because no BG job is ever generated. This is the MMPP/M/1
// collapse for arrival processes refqueue has no closed form for.
func (vs *violations) pZeroPruning() {
	vs.caseName = "pzero"
	arr, err := arrival.MMPP2(0.11, 0.23, 0.9, 0.1)
	if err != nil {
		vs.assert("pzero-pruning", err.Error(), false)
		return
	}
	base := core.Config{Arrival: arr, ServiceRate: 1, BGProb: 0, BGBuffer: 0}
	ref, err := solveConfig(base)
	if err != nil {
		vs.assert("pzero-pruning", err.Error(), false)
		return
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"X=5,a=0.7", core.Config{Arrival: arr, ServiceRate: 1, BGProb: 0, BGBuffer: 5, IdleRate: 0.7}},
		{"X=3,a=2,per-period", core.Config{Arrival: arr, ServiceRate: 1, BGProb: 0, BGBuffer: 3,
			IdleRate: 2, IdlePolicy: core.IdleWaitPerPeriod}},
	}
	for _, v := range variants {
		vs.caseName = "pzero[" + v.name + "]"
		sol, err := solveConfig(v.cfg)
		if err != nil {
			vs.assert("pzero-pruning", fmt.Sprintf("solve failed: %v", err), false)
			continue
		}
		pairs := []struct {
			name     string
			got, ref float64
		}{
			{"QLenFG", sol.QLenFG, ref.QLenFG},
			{"RespTimeFG", sol.RespTimeFG, ref.RespTimeFG},
			{"ProbEmpty", sol.ProbEmpty, ref.ProbEmpty},
			{"UtilFG", sol.UtilFG, ref.UtilFG},
			{"ThroughputFG", sol.ThroughputFG, ref.ThroughputFG},
		}
		for _, p := range pairs {
			vs.add("pzero-pruning", p.name+" must be invariant to pruned BG parameters at p=0",
				p.got, p.ref, oracleTol)
		}
		vs.add("pzero-compBG", "CompBG must be exactly 1 at p=0", sol.CompBG, 1, 0)
		vs.add("pzero-qlenBG", "QLenBG must be exactly 0 at p=0", sol.QLenBG, 0, 0)
	}
}

// monotonicity checks the model's comparative statics: raising the BG spawn
// probability p can only lengthen the FG queue and lower the BG completion
// fraction (same drain capacity, more offered BG work), and enlarging the
// buffer X can only raise the completion fraction. The checks allow a
// round-off slack of 1e-9 per step.
func (vs *violations) monotonicity() {
	vs.caseName = "mono"
	arr, err := arrival.MMPP2(0.2, 0.3, 0.8, 0.2)
	if err == nil {
		arr, err = arr.WithRate(0.5)
	}
	if err != nil {
		vs.assert("monotonicity", err.Error(), false)
		return
	}

	// Sweep p at fixed X.
	ps := []float64{0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9}
	vs.caseName = "mono-p[X=5,a=1]"
	var prevQ, prevC float64
	for i, p := range ps {
		sol, err := solveConfig(core.Config{Arrival: arr, ServiceRate: 1,
			BGProb: p, BGBuffer: 5, IdleRate: 1})
		if err != nil {
			vs.assert("monotonicity", fmt.Sprintf("solve failed at p=%g: %v", p, err), false)
			break
		}
		if i > 0 {
			vs.assert("qlenFG-monotone-p",
				fmt.Sprintf("QLenFG fell from %.12g to %.12g as p rose to %g", prevQ, sol.QLenFG, p),
				sol.QLenFG >= prevQ-invariantTol)
			vs.assert("compBG-monotone-p",
				fmt.Sprintf("CompBG rose from %.12g to %.12g as p rose to %g", prevC, sol.CompBG, p),
				sol.CompBG <= prevC+invariantTol)
		}
		prevQ, prevC = sol.QLenFG, sol.CompBG
	}

	// Sweep X at fixed p.
	vs.caseName = "mono-X[p=0.3,a=1]"
	prevC = -1
	for x := 0; x <= 8; x++ {
		sol, err := solveConfig(core.Config{Arrival: arr, ServiceRate: 1,
			BGProb: 0.3, BGBuffer: x, IdleRate: 1})
		if err != nil {
			vs.assert("monotonicity", fmt.Sprintf("solve failed at X=%d: %v", x, err), false)
			break
		}
		if x > 0 {
			vs.assert("compBG-monotone-X",
				fmt.Sprintf("CompBG fell from %.12g to %.12g as X rose to %d", prevC, sol.CompBG, x),
				sol.CompBG >= prevC-invariantTol)
		}
		prevC = sol.CompBG
	}
}

// oracles runs every exact-oracle suite.
func (vs *violations) oracles() {
	vs.mm1Collapse()
	vs.pZeroPruning()
	vs.monotonicity()
}

// solveConfig forward-solves one configuration serially (the same path the
// planner's evaluations take).
func solveConfig(cfg core.Config) (core.Metrics, error) {
	model, err := core.NewModel(cfg)
	if err != nil {
		return core.Metrics{}, err
	}
	sol, err := model.Solve()
	if err != nil {
		return core.Metrics{}, err
	}
	return sol.Metrics, nil
}
