package bgperf_test

import (
	"bytes"
	"math"
	"testing"

	"bgperf"
)

func TestSolveQuickstart(t *testing.T) {
	email, err := bgperf.EmailWorkload()
	if err != nil {
		t.Fatal(err)
	}
	arr, err := bgperf.AtUtilization(email, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := bgperf.Solve(bgperf.Config{
		Arrival:     arr,
		ServiceRate: bgperf.ServiceRatePerMs,
		BGProb:      0.3,
		BGBuffer:    5,
		IdleRate:    bgperf.ServiceRatePerMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.QLenFG <= 0 || sol.CompBG <= 0 || sol.CompBG > 1 {
		t.Errorf("implausible metrics: %+v", sol.Metrics)
	}
	if math.Abs(sol.UtilFG-0.1) > 1e-6 {
		t.Errorf("UtilFG = %v, want 0.1", sol.UtilFG)
	}
}

func TestNewMAPFacade(t *testing.T) {
	m, err := bgperf.NewMAP(
		[][]float64{{-3, 1}, {2, -2.5}},
		[][]float64{{2, 0}, {0, 0.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate() <= 0 {
		t.Errorf("rate = %v", m.Rate())
	}
	if _, err := bgperf.NewMAP([][]float64{{1, 2}}, [][]float64{{1}}); err == nil {
		t.Error("mismatched matrices accepted")
	}
	if _, err := bgperf.NewMAP([][]float64{{1}, {2, 3}}, [][]float64{{1}}); err == nil {
		t.Error("ragged D0 accepted")
	}
}

func TestArrivalFacades(t *testing.T) {
	if _, err := bgperf.Poisson(2); err != nil {
		t.Error(err)
	}
	if _, err := bgperf.MMPP2(1, 1, 2, 0.1); err != nil {
		t.Error(err)
	}
	if _, err := bgperf.IPP(1, 0.1, 0.1); err != nil {
		t.Error(err)
	}
	fit, err := bgperf.FitMMPP2(bgperf.FitSpec{Rate: 1, SCV: 4, Decay: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.SCV()-4) > 0.01 {
		t.Errorf("fit scv = %v", fit.SCV())
	}
}

func TestWorkloadFacades(t *testing.T) {
	for name, f := range map[string]func() (*bgperf.MAP, error){
		"email":    bgperf.EmailWorkload,
		"softdev":  bgperf.SoftwareDevelopmentWorkload,
		"useracct": bgperf.UserAccountsWorkload,
	} {
		if _, err := f(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSimulateFacade(t *testing.T) {
	p, err := bgperf.Poisson(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bgperf.Simulate(bgperf.SimConfig{
		Arrival:     p,
		ServiceRate: 2,
		BGProb:      0.5,
		BGBuffer:    3,
		IdleRate:    2,
		Seed:        1,
		WarmupTime:  100,
		MeasureTime: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.QLenFG <= 0 {
		t.Errorf("QLenFG = %v", res.Metrics.QLenFG)
	}
}

func TestGenerateTraceFacade(t *testing.T) {
	p, err := bgperf.Poisson(1.0 / 75)
	if err != nil {
		t.Fatal(err)
	}
	tr := bgperf.GenerateTrace(p, 5000, 1, bgperf.ServiceRatePerMs)
	if len(tr.Interarrivals) != 5000 || len(tr.Services) != 5000 {
		t.Fatalf("trace sizes: %d/%d", len(tr.Interarrivals), len(tr.Services))
	}
	if u := tr.Utilization(); u < 0.05 || u > 0.12 {
		t.Errorf("utilization = %v, want ~0.08", u)
	}
}

func TestPHServiceFacade(t *testing.T) {
	svc, err := bgperf.PHFitTwoMoment(6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	email, err := bgperf.EmailWorkload()
	if err != nil {
		t.Fatal(err)
	}
	arr, err := bgperf.AtUtilization(email, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := bgperf.Solve(bgperf.Config{
		Arrival:  arr,
		Service:  svc, // Erlang-4 service, 6 ms mean
		BGProb:   0.3,
		BGBuffer: 5,
		IdleRate: bgperf.ServiceRatePerMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Smoother-than-exponential service must beat the exponential model.
	ref, err := bgperf.Solve(bgperf.Config{
		Arrival:     arr,
		ServiceRate: bgperf.ServiceRatePerMs,
		BGProb:      0.3,
		BGBuffer:    5,
		IdleRate:    bgperf.ServiceRatePerMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.QLenFG >= ref.QLenFG {
		t.Errorf("Erlang-4 service queue %v not below exponential %v", sol.QLenFG, ref.QLenFG)
	}
	if _, err := bgperf.PHErlang(2, 1); err != nil {
		t.Error(err)
	}
	if _, err := bgperf.PHHyperexponential([]float64{0.5, 0.5}, []float64{1, 3}); err != nil {
		t.Error(err)
	}
}

func TestGeneralConstructorsFacade(t *testing.T) {
	m, err := bgperf.MMPPGeneral(
		[]float64{1, 0.2, 0.05},
		[][]float64{{-0.02, 0.01, 0.01}, {0.01, -0.02, 0.01}, {0.005, 0.005, -0.01}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order() != 3 || m.SCV() <= 1 {
		t.Errorf("MMPPGeneral order %d scv %v", m.Order(), m.SCV())
	}
	if _, err := bgperf.MMPPGeneral([]float64{1}, [][]float64{{0, 1}}); err == nil {
		t.Error("ragged modulator accepted")
	}
	cox, err := bgperf.PHCoxian([]float64{2, 3}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	if cox.Order() != 2 {
		t.Errorf("Coxian order %d", cox.Order())
	}
}

func TestMultiFacade(t *testing.T) {
	soft, err := bgperf.SoftwareDevelopmentWorkload()
	if err != nil {
		t.Fatal(err)
	}
	arr, err := bgperf.AtUtilization(soft, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := bgperf.Solve(bgperf.Config{
		Arrival: arr, ServiceRate: bgperf.ServiceRatePerMs,
		BGProb: 0.2, BG2Prob: 0.4, BGBuffer: 3, BG2Buffer: 3,
		IdleRate: bgperf.ServiceRatePerMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.BG2 == nil {
		t.Fatal("two-class solve reported no class-2 metrics")
	}
	if sol.CompBG < sol.BG2.Comp {
		t.Errorf("priority inverted: %v < %v", sol.CompBG, sol.BG2.Comp)
	}
	if p := sol.KindProb(bgperf.KindBG2); p != sol.BG2.Util {
		t.Errorf("KindProb(KindBG2) = %v, BG2.Util %v", p, sol.BG2.Util)
	}
	res, err := bgperf.Simulate(bgperf.SimConfig{
		Arrival: arr, ServiceRate: bgperf.ServiceRatePerMs,
		BGProb: 0.2, BG2Prob: 0.4, BGBuffer: 3, BG2Buffer: 3,
		IdleRate: bgperf.ServiceRatePerMs,
		Seed:     2, WarmupTime: 1e5, MeasureTime: 1e7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.QLenFG <= 0 || res.Metrics.BG2 == nil {
		t.Errorf("simulated QLenFG = %v, BG2 = %v", res.Metrics.QLenFG, res.Metrics.BG2)
	}
}

func TestServiceMAPFacade(t *testing.T) {
	ph, err := bgperf.PHErlang(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	svcMAP, err := bgperf.ServiceMAPFromPH(ph)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := bgperf.Poisson(0.6)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := bgperf.Solve(bgperf.Config{
		Arrival: ap, ServiceMAP: svcMAP, BGProb: 0.3, BGBuffer: 3, IdleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bgperf.Solve(bgperf.Config{
		Arrival: ap, Service: ph, BGProb: 0.3, BGBuffer: 3, IdleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.QLenFG-ref.QLenFG) > 1e-9*(1+ref.QLenFG) {
		t.Errorf("renewal MAP %v != PH %v", sol.QLenFG, ref.QLenFG)
	}
}

func TestTraceFacades(t *testing.T) {
	hidden, err := bgperf.MMPP2(0.01, 0.02, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tr := bgperf.GenerateTrace(hidden, 200000, 5, 1)
	fit, err := bgperf.FitWorkloadFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rate()-hidden.Rate())/hidden.Rate() > 0.1 {
		t.Errorf("fitted rate %v vs %v", fit.Rate(), hidden.Rate())
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := bgperf.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Interarrivals) != len(tr.Interarrivals) {
		t.Error("round trip lost rows")
	}
}
