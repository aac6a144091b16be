package sim

import (
	"errors"
	"testing"

	"bgperf/internal/core"
)

// Scenario-expansion conformance tests (PR 10): the simulator's capacity
// modulation, util-threshold admission, and deadline reneging against the
// analytic chain, plus the degenerate φ = 1 identity.

// TestSimModFactorOneIdentical pins that an explicit ModFactor of 1 and an
// AdmitAll policy are byte-identical no-ops: the stretch multiplies service
// draws by 1/φ = 1 and the renege timer is never armed, so the run consumes
// the same random stream and reproduces the baseline result exactly.
func TestSimModFactorOneIdentical(t *testing.T) {
	base := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.6, BGBuffer: 5,
		IdleRate: 2, Seed: 21, WarmupTime: 2000, MeasureTime: 2e5,
	}
	mod := base
	mod.ModFactor = 1
	mod.BGAdmit = core.AdmitAll
	rBase, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rMod, err := Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	if rBase.Metrics != rMod.Metrics {
		t.Errorf("φ=1 metrics diverge from baseline:\n  base %+v\n  φ=1  %+v", rBase.Metrics, rMod.Metrics)
	}
	if rBase.Counters != rMod.Counters {
		t.Errorf("φ=1 counters diverge from baseline:\n  base %+v\n  φ=1  %+v", rBase.Counters, rMod.Counters)
	}
}

// TestModulatedAgreementWithAnalytic checks the stretched-service simulator
// against the modulated QBD chain.
func TestModulatedAgreementWithAnalytic(t *testing.T) {
	ap := poisson(t, 0.5)
	model, err := core.NewModel(core.Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleRate: 1.5,
		ModFactor: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleRate: 1.5,
		ModFactor: 0.6, Seed: 41, WarmupTime: 5000, MeasureTime: 8e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.05)
	checkAgree(t, "UtilFG", r.Metrics.UtilFG, ana.UtilFG, 0.01, 0.03)
	checkAgree(t, "UtilBG", r.Metrics.UtilBG, ana.UtilBG, 0.01, 0.05)
	checkAgree(t, "CompBG", r.Metrics.CompBG, ana.CompBG, 0.015, 0.03)
	checkAgree(t, "ThroughputBG", r.Metrics.ThroughputBG, ana.ThroughputBG, 0.005, 0.05)
	checkAgree(t, "WaitPFG", r.Metrics.WaitPFG, ana.WaitPFG, 0.01, 0.08)
}

// TestUtilThresholdAgreementWithAnalytic checks the FG-queue-gated admission
// simulator against the chain with the extended boundary.
func TestUtilThresholdAgreementWithAnalytic(t *testing.T) {
	ap := poisson(t, 0.8)
	model, err := core.NewModel(core.Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.7, BGBuffer: 3, IdleRate: 1.2,
		BGAdmit: core.AdmitUtilThreshold, FGThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.7, BGBuffer: 3, IdleRate: 1.2,
		BGAdmit: core.AdmitUtilThreshold, FGThreshold: 2,
		Seed: 43, WarmupTime: 5000, MeasureTime: 8e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.05)
	checkAgree(t, "QLenBG", r.Metrics.QLenBG, ana.QLenBG, 0.02, 0.05)
	checkAgree(t, "CompBG", r.Metrics.CompBG, ana.CompBG, 0.015, 0.03)
	checkAgree(t, "DropRateBG", r.Metrics.DropRateBG, ana.DropRateBG, 0.005, 0.08)
	checkAgree(t, "ThroughputBG", r.Metrics.ThroughputBG, ana.ThroughputBG, 0.005, 0.05)
}

// TestDeadlineAgreementWithAnalytic checks the pooled-renege-timer simulator
// against the chain's per-level renege kernels, including the new
// DeadlineMissBG metric and its flow balance.
func TestDeadlineAgreementWithAnalytic(t *testing.T) {
	ap := poisson(t, 0.6)
	model, err := core.NewModel(core.Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleRate: 1,
		BGAdmit: core.AdmitDeadline, DeadlineRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleRate: 1,
		BGAdmit: core.AdmitDeadline, DeadlineRate: 0.4,
		Seed: 47, WarmupTime: 5000, MeasureTime: 8e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.05)
	checkAgree(t, "QLenBG", r.Metrics.QLenBG, ana.QLenBG, 0.02, 0.05)
	checkAgree(t, "ThroughputBG", r.Metrics.ThroughputBG, ana.ThroughputBG, 0.005, 0.05)
	checkAgree(t, "DeadlineMissBG", r.Metrics.DeadlineMissBG, ana.DeadlineMissBG, 0.01, 0.08)
	if r.Counters.RenegedBG <= 0 {
		t.Errorf("deadline run reneged %d jobs, want > 0", r.Counters.RenegedBG)
	}
	// Sim-side flow balance: every admitted job either completes, reneges,
	// or is still in the system at the window edge (a bounded remainder).
	rem := r.Counters.AdmittedBG - r.Counters.CompletedBG - r.Counters.RenegedBG
	if rem < -int64(2*4) || rem > int64(2*4) {
		t.Errorf("admitted %d vs completed %d + reneged %d: remainder %d exceeds buffer bound",
			r.Counters.AdmittedBG, r.Counters.CompletedBG, r.Counters.RenegedBG, rem)
	}
}

// TestModulatedDeadlineAgreementWithAnalytic crosses both axes: modulated
// capacity with deadline reneging, exercising the mid-service rescale when a
// renege drains the BG queue under a stretched draw.
func TestModulatedDeadlineAgreementWithAnalytic(t *testing.T) {
	ap := poisson(t, 0.5)
	model, err := core.NewModel(core.Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 3, IdleRate: 1,
		ModFactor: 0.7, BGAdmit: core.AdmitDeadline, DeadlineRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 3, IdleRate: 1,
		ModFactor: 0.7, BGAdmit: core.AdmitDeadline, DeadlineRate: 0.5,
		Seed: 53, WarmupTime: 5000, MeasureTime: 8e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.05)
	checkAgree(t, "UtilFG", r.Metrics.UtilFG, ana.UtilFG, 0.01, 0.03)
	checkAgree(t, "ThroughputBG", r.Metrics.ThroughputBG, ana.ThroughputBG, 0.005, 0.06)
	checkAgree(t, "DeadlineMissBG", r.Metrics.DeadlineMissBG, ana.DeadlineMissBG, 0.015, 0.10)
}

// TestScenarioConfigValidationSim mirrors the core-side validation table for
// the simulator's copies of the scenario fields.
func TestScenarioConfigValidationSim(t *testing.T) {
	ap := poisson(t, 1)
	base := Config{Arrival: ap, ServiceRate: 2, BGProb: 0.5, BGBuffer: 2, IdleRate: 1, MeasureTime: 10}
	cases := []struct {
		name   string
		mut    func(*Config)
		field  string
		wantOK bool
	}{
		{"mod out of range", func(c *Config) { c.ModFactor = 1.5 }, "ModFactor", false},
		{"mod negative", func(c *Config) { c.ModFactor = -0.5 }, "ModFactor", false},
		{"threshold without policy", func(c *Config) { c.FGThreshold = 2 }, "FGThreshold", false},
		{"deadline policy without rate", func(c *Config) { c.BGAdmit = core.AdmitDeadline }, "DeadlineRate", false},
		{"rate without deadline policy", func(c *Config) { c.DeadlineRate = 0.5 }, "DeadlineRate", false},
		{"valid two-class", func(c *Config) {
			c.BG2Prob = 0.3
			c.BG2Buffer = 2
			c.ModFactor = 0.8
		}, "", true},
		{"valid modulated util", func(c *Config) {
			c.ModFactor = 0.8
			c.BGAdmit = core.AdmitUtilThreshold
			c.FGThreshold = 1
		}, "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := Run(cfg)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			var verr *core.ValidationError
			if !errors.As(err, &verr) || verr.Field != tc.field {
				t.Fatalf("got %v, want ValidationError on %s", err, tc.field)
			}
		})
	}
}
