package core_test

import (
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/phtype"
	"bgperf/internal/sim"
)

// TestTwoClassSimulatorAgreement cross-checks the two-class chain against
// the event simulator under both idle policies, and with Erlang-2 service —
// a composition of the second class with the phase-type service kernels.
func TestTwoClassSimulatorAgreement(t *testing.T) {
	poisson1, err := arrival.Poisson(1)
	if err != nil {
		t.Fatal(err)
	}
	poisson06, err := arrival.Poisson(0.6)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := arrival.MMPP2(0.01, 0.02, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if bursty, err = bursty.WithRate(0.35 * 2); err != nil {
		t.Fatal(err)
	}
	erlang2, err := phtype.Erlang(2, 4) // mean 0.5, like µ = 2
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  core.Config
		seed int64
		time float64
	}{
		{"mmpp-per-job", core.Config{Arrival: bursty, ServiceRate: 2,
			BGProb: 0.4, BG2Prob: 0.3, BGBuffer: 3, BG2Buffer: 3, IdleRate: 1}, 9, 3e6},
		{"poisson-per-period", core.Config{Arrival: poisson1, ServiceRate: 2,
			BGProb: 0.5, BG2Prob: 0.4, BGBuffer: 3, BG2Buffer: 3, IdleRate: 0.8,
			IdlePolicy: core.IdleWaitPerPeriod}, 4, 2e6},
		{"erlang2-service", core.Config{Arrival: poisson06, Service: erlang2,
			BGProb: 0.3, BG2Prob: 0.4, BGBuffer: 3, BG2Buffer: 2, IdleRate: 1.5}, 7, 1e6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := core.NewModel(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ana, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			c := tc.cfg
			res, err := sim.Run(sim.Config{
				Arrival: c.Arrival, ServiceRate: c.ServiceRate, Service: c.Service,
				BGProb: c.BGProb, BG2Prob: c.BG2Prob, BGBuffer: c.BGBuffer, BG2Buffer: c.BG2Buffer,
				IdleRate: c.IdleRate, IdlePolicy: c.IdlePolicy,
				Seed: tc.seed, WarmupTime: 1e4, MeasureTime: tc.time,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Metrics
			check := func(name string, simV, anaV, absTol, relTol float64) {
				t.Helper()
				if tol := math.Max(absTol, relTol*math.Abs(anaV)); math.Abs(simV-anaV) > tol {
					t.Errorf("%s: simulated %v vs analytic %v (tol %v)", name, simV, anaV, tol)
				}
			}
			check("QLenFG", got.QLenFG, ana.QLenFG, 0.02, 0.05)
			check("QLenBG", got.QLenBG, ana.QLenBG, 0.02, 0.05)
			check("BG2.QLen", got.BG2.QLen, ana.BG2.QLen, 0.02, 0.05)
			check("CompBG", got.CompBG, ana.CompBG, 0.01, 0.03)
			check("BG2.Comp", got.BG2.Comp, ana.BG2.Comp, 0.01, 0.03)
			check("WaitPFG", got.WaitPFG, ana.WaitPFG, 0.005, 0.05)
			check("UtilBG", got.UtilBG, ana.UtilBG, 0.003, 0.05)
			check("BG2.Util", got.BG2.Util, ana.BG2.Util, 0.003, 0.05)
			check("ProbIdleWait", got.ProbIdleWait, ana.ProbIdleWait, 0.003, 0.05)
			check("BG2.RespTime", got.BG2.RespTime, ana.BG2.RespTime, 0.05, 0.05)
		})
	}
}
