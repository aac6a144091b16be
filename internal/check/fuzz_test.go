package check

import (
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/sim"
)

// fold maps an arbitrary finite float into [lo, hi) deterministically, so
// fuzz inputs always land in the generator's validated parameter space and
// every interesting corner (p = 0, X = 0, extreme burst ratios) stays
// reachable.
func fold(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	span := hi - lo
	f := math.Mod(math.Abs(v), span)
	return lo + f
}

// fuzzConfig maps raw fuzz inputs to a valid model configuration, or ok=false
// for inputs with no valid interpretation. The ranges mirror the conformance
// generator (see gen.go) so simulation windows stay statistically calibrated.
func fuzzConfig(v1, v2, ratio, util, p, alpha float64, x int, perPeriod bool) (core.Config, bool) {
	util = fold(util, 0.10, 0.60)
	ratio = fold(ratio, 1, 8)
	v1 = fold(v1, 0.05, 0.6)
	v2 = fold(v2, 0.05, 0.6)
	p = fold(p, 0, 1)
	if p < 0.03 {
		p = 0 // keep the degenerate branch reachable, avoid starving CompBG
	}
	alpha = fold(alpha, 0.2, 3)
	if x < 0 {
		x = -x
	}
	x %= 7
	policy := core.IdleWaitPerJob
	if perPeriod {
		policy = core.IdleWaitPerPeriod
	}
	arr, err := arrival.MMPP2(v1, v2, ratio, 1)
	if err != nil {
		return core.Config{}, false
	}
	arr, err = arr.WithRate(util)
	if err != nil {
		return core.Config{}, false
	}
	return core.Config{
		Arrival: arr, ServiceRate: 1, BGProb: p, BGBuffer: x,
		IdleRate: alpha, IdlePolicy: policy,
	}, true
}

// FuzzSolveVsSim cross-checks the analytic solver and the simulator on
// fuzzer-chosen configurations: the solution must satisfy every structural
// invariant exactly, the simulator's raw counters must conserve flow, both
// sides must agree exactly on the degenerate p = 0 metrics, and the four
// paper metrics must agree within a deliberately generous statistical band
// (the tight CI-calibrated band is `bgperf check`'s job — here windows are
// short so fuzzing covers many configurations per second).
func FuzzSolveVsSim(f *testing.F) {
	f.Add(0.2, 0.3, 4.0, 0.5, 0.3, 1.0, 5, false)
	f.Add(0.1, 0.5, 1.5, 0.2, 0.0, 0.5, 3, true)
	f.Add(0.6, 0.05, 7.9, 0.59, 0.94, 2.9, 6, false)
	f.Add(0.05, 0.05, 1.0, 0.1, 0.5, 0.2, 0, false)
	f.Fuzz(func(t *testing.T, v1, v2, ratio, util, p, alpha float64, x int, perPeriod bool) {
		cfg, ok := fuzzConfig(v1, v2, ratio, util, p, alpha, x, perPeriod)
		if !ok {
			t.Skip("no valid interpretation")
		}
		model, err := core.NewModel(cfg)
		if err != nil {
			t.Fatalf("folded config rejected: %v", err)
		}
		sol, err := model.Solve()
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		vs := &violations{caseName: "fuzz"}
		vs.solvedPoint(model, sol)
		for _, v := range vs.list {
			t.Errorf("invariant violation: %s", v)
		}

		simCfg := sim.FromModel(cfg, 1, 500, 6000)
		agg, err := sim.RunReplicationsOpts(nil, simCfg, 2, 2, nil)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		for _, r := range agg.Replications {
			c := r.Counters
			if c.GeneratedBG != c.AdmittedBG+c.DroppedBG {
				t.Errorf("sim flow leak: generated %d != admitted %d + dropped %d",
					c.GeneratedBG, c.AdmittedBG, c.DroppedBG)
			}
			for _, pr := range []struct {
				name string
				v    float64
			}{
				{"CompBG", r.Metrics.CompBG}, {"WaitPFG", r.Metrics.WaitPFG},
				{"UtilFG", r.Metrics.UtilFG}, {"ProbEmpty", r.Metrics.ProbEmpty},
			} {
				if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
					t.Errorf("sim %s = %v outside [0,1]", pr.name, pr.v)
				}
			}
		}
		if cfg.BGProb == 0 {
			if agg.Mean.CompBG != 1 || agg.Mean.QLenBG != 0 || sol.CompBG != 1 || sol.QLenBG != 0 {
				t.Errorf("p=0 degenerate metrics differ: sim CompBG %v QLenBG %v, analytic CompBG %v QLenBG %v",
					agg.Mean.CompBG, agg.Mean.QLenBG, sol.CompBG, sol.QLenBG)
			}
		}
		for _, pm := range paperMetrics {
			ana, simVal := pm.get(sol.Metrics), pm.get(agg.Mean)
			allowed := 8*replicationHalfWidth(agg, pm.get) + 0.5*(0.3+math.Abs(ana))
			if d := math.Abs(simVal - ana); d > allowed {
				t.Errorf("%s: analytic %.6g vs sim %.6g differ by %.3g (allowed %.3g)",
					pm.name, ana, simVal, d, allowed)
			}
		}
	})
}

// FuzzCacheKeyRoundTrip checks the solve-cache key (core.CacheKey) on
// fuzzer-chosen configurations: keying is deterministic, canonicalizes
// defaulted fields (an explicit default policy keys identically to the zero
// value), and is sensitive to every model parameter it must distinguish —
// a collision would silently serve one model's metrics for another.
func FuzzCacheKeyRoundTrip(f *testing.F) {
	f.Add(0.2, 0.3, 4.0, 0.5, 0.3, 1.0, 5, false)
	f.Add(0.1, 0.5, 1.5, 0.2, 0.0, 0.5, 0, true)
	f.Add(0.6, 0.05, 7.9, 0.59, 0.94, 2.9, 6, false)
	f.Fuzz(func(t *testing.T, v1, v2, ratio, util, p, alpha float64, x int, perPeriod bool) {
		cfg, ok := fuzzConfig(v1, v2, ratio, util, p, alpha, x, perPeriod)
		if !ok {
			t.Skip("no valid interpretation")
		}
		k1, err := core.CacheKey(cfg)
		if err != nil {
			t.Fatalf("folded config rejected: %v", err)
		}
		k2, err := core.CacheKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("key not deterministic: %s vs %s", k1, k2)
		}
		if len(k1) != 64 {
			t.Fatalf("key %q is not a sha256 hex digest", k1)
		}

		// Defaults canonicalize: the zero-value policy means per-job, so
		// spelling it out must not change the key.
		if !perPeriod {
			canon := cfg
			canon.IdlePolicy = 0
			ck, err := core.CacheKey(canon)
			if err != nil {
				t.Fatal(err)
			}
			if ck != k1 {
				t.Errorf("explicit default policy changed the key: %s vs %s", ck, k1)
			}
		}

		// Sensitivity: any semantic change must change the key.
		perturb := func(name string, mutate func(*core.Config)) {
			mut := cfg
			mutate(&mut)
			mk, err := core.CacheKey(mut)
			if err != nil {
				t.Fatalf("%s perturbation rejected: %v", name, err)
			}
			if mk == k1 {
				t.Errorf("%s perturbation did not change the key", name)
			}
		}
		perturb("BGBuffer", func(c *core.Config) { c.BGBuffer++ })
		perturb("BGProb", func(c *core.Config) { c.BGProb = c.BGProb/2 + 0.01 })
		perturb("IdleRate", func(c *core.Config) { c.IdleRate *= 1.5 })
		perturb("IdlePolicy", func(c *core.Config) {
			if c.IdlePolicy == core.IdleWaitPerPeriod {
				c.IdlePolicy = core.IdleWaitPerJob
			} else {
				c.IdlePolicy = core.IdleWaitPerPeriod
			}
		})
		perturb("Arrival", func(c *core.Config) {
			scaled, err := c.Arrival.WithRate(c.Arrival.Rate() * 1.125)
			if err != nil {
				t.Fatal(err)
			}
			c.Arrival = scaled
		})
	})
}
