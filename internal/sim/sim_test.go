package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/mat"
	"bgperf/internal/phtype"
)

// matFromRowsT builds a matrix in tests.
func matFromRowsT(t testing.TB, rows [][]float64) *mat.Matrix {
	t.Helper()
	m, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustPoisson builds a Poisson MAP outside a testing context.
func mustPoisson(rate float64) *arrival.MAP {
	m, err := arrival.Poisson(rate)
	if err != nil {
		panic(err)
	}
	return m
}

func poisson(t testing.TB, rate float64) *arrival.MAP {
	t.Helper()
	m, err := arrival.Poisson(rate)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func softDev(t testing.TB, util, mu float64) *arrival.MAP {
	t.Helper()
	m, err := arrival.MMPP2(0.9e-6, 1.9e-6, 1.0e-4, 3.5e-2)
	if err != nil {
		t.Fatal(err)
	}
	m, err = m.WithRate(util * mu)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidation(t *testing.T) {
	ap := poisson(t, 1)
	tests := []struct {
		name  string
		cfg   Config
		field string // checked when set
	}{
		{"nil arrival", Config{ServiceRate: 1, MeasureTime: 10}, ""},
		{"no service", Config{Arrival: ap, MeasureTime: 10}, ""},
		{"bad p", Config{Arrival: ap, ServiceRate: 2, BGProb: 2, MeasureTime: 10}, ""},
		{"no idle rate", Config{Arrival: ap, ServiceRate: 2, BGBuffer: 2, MeasureTime: 10}, ""},
		{"no window", Config{Arrival: ap, ServiceRate: 2}, ""},
		{"negative warmup", Config{Arrival: ap, ServiceRate: 2, MeasureTime: 1, WarmupTime: -1}, ""},
		{"one batch", Config{Arrival: ap, ServiceRate: 2, MeasureTime: 1, Batches: 1}, ""},
		{"unknown idle policy", Config{Arrival: ap, ServiceRate: 2, BGProb: 0.5, BGBuffer: 2, IdleRate: 1, IdlePolicy: 7, MeasureTime: 10}, "IdlePolicy"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			var verr *core.ValidationError
			if tt.field != "" && (!errors.As(err, &verr) || verr.Field != tt.field) {
				t.Errorf("want a validation error on %s, got %v", tt.field, err)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.5, BGBuffer: 5,
		IdleRate: 2, Seed: 99, WarmupTime: 100, MeasureTime: 5000,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics != r2.Metrics || r1.Counters != r2.Counters {
		t.Error("same seed produced different results")
	}
	cfg.Seed = 100
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counters == r3.Counters {
		t.Error("different seeds produced identical counters")
	}
}

func TestMM1QueueLength(t *testing.T) {
	const rho = 0.5
	cfg := Config{
		Arrival: poisson(t, rho*2), ServiceRate: 2, Seed: 7,
		WarmupTime: 1000, MeasureTime: 200000,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := rho / (1 - rho)
	if math.Abs(r.Metrics.QLenFG-want) > math.Max(3*r.QLenFGHalf, 0.03) {
		t.Errorf("QLenFG = %v ± %v, want %v", r.Metrics.QLenFG, r.QLenFGHalf, want)
	}
	if math.Abs(r.Metrics.UtilFG-rho) > 0.01 {
		t.Errorf("UtilFG = %v, want %v", r.Metrics.UtilFG, rho)
	}
}

func TestLittleLaw(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.6, BGBuffer: 5,
		IdleRate: 2, Seed: 3, WarmupTime: 1000, MeasureTime: 100000,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lambda := float64(r.Counters.CompletedFG) / r.SimTime
	little := lambda * r.Metrics.RespTimeFG
	if math.Abs(little-r.Metrics.QLenFG) > 0.05*r.Metrics.QLenFG {
		t.Errorf("λW = %v vs L = %v", little, r.Metrics.QLenFG)
	}
}

func TestBGFlowConservation(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.8, BGBuffer: 4,
		IdleRate: 1, Seed: 11, WarmupTime: 500, MeasureTime: 50000,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Counters
	if c.GeneratedBG != c.AdmittedBG+c.DroppedBG {
		t.Errorf("generated %d != admitted %d + dropped %d", c.GeneratedBG, c.AdmittedBG, c.DroppedBG)
	}
	// Completions may lag admissions by at most the jobs still in system
	// (window boundaries add a few more); the discrepancy must stay tiny.
	if diff := c.AdmittedBG - c.CompletedBG; diff < -10 || diff > 10 {
		t.Errorf("admitted %d vs completed %d", c.AdmittedBG, c.CompletedBG)
	}
}

// analyticCfg mirrors a sim config into the analytic model.
func analyticCfg(t testing.TB, cfg Config) core.Metrics {
	t.Helper()
	m, err := core.NewModel(core.Config{
		Arrival:     cfg.Arrival,
		ServiceRate: cfg.ServiceRate,
		BGProb:      cfg.BGProb,
		BGBuffer:    cfg.BGBuffer,
		IdleRate:    cfg.IdleRate,
		IdlePolicy:  cfg.IdlePolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return s.Metrics
}

func checkAgree(t *testing.T, name string, simV, anaV, absTol, relTol float64) {
	t.Helper()
	tol := math.Max(absTol, relTol*math.Abs(anaV))
	if math.Abs(simV-anaV) > tol {
		t.Errorf("%s: simulated %v vs analytic %v (tol %v)", name, simV, anaV, tol)
	}
}

func TestAgreementWithAnalyticPoisson(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.6, BGBuffer: 5,
		IdleRate: 2, Seed: 21, WarmupTime: 2000, MeasureTime: 400000,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ana := analyticCfg(t, cfg)
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.02)
	checkAgree(t, "QLenBG", r.Metrics.QLenBG, ana.QLenBG, 3*r.QLenBGHalf, 0.02)
	checkAgree(t, "CompBG", r.Metrics.CompBG, ana.CompBG, 0.01, 0.02)
	checkAgree(t, "WaitPFG", r.Metrics.WaitPFG, ana.WaitPFG, 0.005, 0.05)
	checkAgree(t, "UtilFG", r.Metrics.UtilFG, ana.UtilFG, 0.005, 0.02)
	checkAgree(t, "UtilBG", r.Metrics.UtilBG, ana.UtilBG, 0.005, 0.03)
	checkAgree(t, "ProbIdleWait", r.Metrics.ProbIdleWait, ana.ProbIdleWait, 0.005, 0.03)
	checkAgree(t, "ProbEmpty", r.Metrics.ProbEmpty, ana.ProbEmpty, 0.005, 0.02)
	checkAgree(t, "RespTimeBG", r.Metrics.RespTimeBG, ana.RespTimeBG, 0.05, 0.03)
}

func TestAgreementWithAnalyticMMPP(t *testing.T) {
	if testing.Short() {
		t.Skip("long MMPP simulation")
	}
	// A bursty but fast-mixing MMPP: the paper's trace MMPPs switch phases
	// every ~10⁶ time units, far too slowly for a simulation to average over
	// in test time, so agreement of the chain semantics under correlated
	// arrivals is checked on a compressed-timescale MMPP instead.
	bursty, err := arrival.MMPP2(0.01, 0.02, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	mu := 2.0
	ap, err := bursty.WithRate(0.3 * mu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Arrival: ap, ServiceRate: mu, BGProb: 0.6, BGBuffer: 5,
		IdleRate: mu, Seed: 5, WarmupTime: 1e4, MeasureTime: 2e6, Batches: 30,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ana := analyticCfg(t, cfg)
	// Correlated arrivals converge slowly; compare within batch CIs.
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.10)
	checkAgree(t, "QLenBG", r.Metrics.QLenBG, ana.QLenBG, 3*r.QLenBGHalf, 0.10)
	checkAgree(t, "CompBG", r.Metrics.CompBG, ana.CompBG, 0.02, 0.05)
	checkAgree(t, "WaitPFG", r.Metrics.WaitPFG, ana.WaitPFG, 0.004, 0.10)
	checkAgree(t, "UtilFG", r.Metrics.UtilFG, ana.UtilFG, 0.01, 0.05)
}

func TestAgreementPerPeriodPolicy(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.9, BGBuffer: 4,
		IdleRate: 0.5, IdlePolicy: core.IdleWaitPerPeriod,
		Seed: 31, WarmupTime: 2000, MeasureTime: 400000,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ana := analyticCfg(t, cfg)
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.02)
	checkAgree(t, "CompBG", r.Metrics.CompBG, ana.CompBG, 0.01, 0.02)
	checkAgree(t, "UtilBG", r.Metrics.UtilBG, ana.UtilBG, 0.005, 0.03)
	checkAgree(t, "ProbIdleWait", r.Metrics.ProbIdleWait, ana.ProbIdleWait, 0.005, 0.05)
}

func TestDeterministicIdleWait(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.6, BGBuffer: 5,
		IdleRate: 2, IdleDist: IdleDeterministic,
		Seed: 41, WarmupTime: 1000, MeasureTime: 100000,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	if m.QLenFG <= 0 || m.CompBG <= 0 || m.CompBG > 1 {
		t.Errorf("implausible metrics with deterministic idle wait: %+v", m)
	}
	// State probabilities must still partition.
	total := m.UtilFG + m.UtilBG + m.ProbIdleWait + m.ProbEmpty
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("state probabilities sum to %v", total)
	}
}

func TestNoBGWork(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, Seed: 1,
		WarmupTime: 100, MeasureTime: 20000,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Counters
	if c.GeneratedBG != 0 || c.CompletedBG != 0 || c.DelayedFG != 0 {
		t.Errorf("BG activity without BG work: %+v", c)
	}
	if r.Metrics.CompBG != 1 {
		t.Errorf("CompBG = %v, want 1", r.Metrics.CompBG)
	}
}

func BenchmarkSimulate(b *testing.B) {
	cfg := Config{
		Arrival: poisson(b, 1), ServiceRate: 2, BGProb: 0.6, BGBuffer: 5,
		IdleRate: 2, Seed: 1, WarmupTime: 100, MeasureTime: 10000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPHServiceAgreementWithAnalytic(t *testing.T) {
	svc, err := phtype.FitTwoMoment(0.5, 3) // bursty H2 service
	if err != nil {
		t.Fatal(err)
	}
	ap, err := arrival.Poisson(1.0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(core.Config{Arrival: ap, Service: svc, BGProb: 0.6, BGBuffer: 4, IdleRate: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Arrival: ap, Service: svc, BGProb: 0.6, BGBuffer: 4, IdleRate: 2,
		Seed: 17, WarmupTime: 2000, MeasureTime: 4e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, simV, anaV, absTol, relTol float64) {
		t.Helper()
		tol := math.Max(absTol, relTol*math.Abs(anaV))
		if math.Abs(simV-anaV) > tol {
			t.Errorf("%s: simulated %v vs analytic %v", name, simV, anaV)
		}
	}
	check("QLenFG", res.Metrics.QLenFG, s.QLenFG, 3*res.QLenFGHalf, 0.03)
	check("QLenBG", res.Metrics.QLenBG, s.QLenBG, 3*res.QLenBGHalf, 0.03)
	check("CompBG", res.Metrics.CompBG, s.CompBG, 0.01, 0.02)
	check("WaitPFG", res.Metrics.WaitPFG, s.WaitPFG, 0.005, 0.05)
	check("UtilBG", res.Metrics.UtilBG, s.UtilBG, 0.005, 0.05)
}

func TestQuickRandomConfigAgreement(t *testing.T) {
	// Randomized cross-validation: the analytic chain and the simulator
	// must agree on arbitrary (stable, Poisson-fed) configurations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := 1 + rng.Float64()*3
		rho := 0.2 + rng.Float64()*0.6
		cfg := Config{
			Arrival:     mustPoisson(rho * mu),
			ServiceRate: mu,
			BGProb:      rng.Float64(),
			BGBuffer:    1 + rng.Intn(5),
			IdleRate:    0.2*mu + rng.Float64()*2*mu,
			Seed:        seed,
			WarmupTime:  2000 / mu,
			MeasureTime: 3e5 / mu,
		}
		if rng.Intn(2) == 1 {
			cfg.IdlePolicy = core.IdleWaitPerPeriod
		}
		r, err := Run(cfg)
		if err != nil {
			return false
		}
		ana := analyticCfg(t, cfg)
		within := func(simV, anaV, absTol, relTol float64) bool {
			return math.Abs(simV-anaV) <= math.Max(absTol, relTol*math.Abs(anaV))
		}
		return within(r.Metrics.QLenFG, ana.QLenFG, math.Max(0.05, 4*r.QLenFGHalf), 0.08) &&
			within(r.Metrics.CompBG, ana.CompBG, 0.03, 0.05) &&
			within(r.Metrics.UtilBG, ana.UtilBG, 0.01, 0.10) &&
			within(r.Metrics.WaitPFG, ana.WaitPFG, 0.01, 0.10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPHIdleAgreementWithAnalytic(t *testing.T) {
	// Erlang-4 idle wait: chain vs simulator.
	idle, err := phtype.Erlang(4, 8) // mean 0.5
	if err != nil {
		t.Fatal(err)
	}
	ap := poisson(t, 1)
	model, err := core.NewModel(core.Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.7, BGBuffer: 4, IdleWait: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.7, BGBuffer: 4, IdleWait: idle,
		Seed: 23, WarmupTime: 2000, MeasureTime: 4e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.03)
	checkAgree(t, "CompBG", r.Metrics.CompBG, ana.CompBG, 0.01, 0.02)
	checkAgree(t, "UtilBG", r.Metrics.UtilBG, ana.UtilBG, 0.005, 0.05)
	checkAgree(t, "ProbIdleWait", r.Metrics.ProbIdleWait, ana.ProbIdleWait, 0.005, 0.05)
	checkAgree(t, "WaitPFG", r.Metrics.WaitPFG, ana.WaitPFG, 0.005, 0.05)
}

func TestErlangIdleApproachesDeterministic(t *testing.T) {
	// The chain with a high-order Erlang idle wait must approach the
	// simulator's deterministic timer of the same mean.
	idle, err := phtype.Erlang(32, 64) // mean 0.5, SCV 1/32
	if err != nil {
		t.Fatal(err)
	}
	ap := poisson(t, 1)
	model, err := core.NewModel(core.Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.7, BGBuffer: 4, IdleWait: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	det, err := Run(Config{
		Arrival: ap, ServiceRate: 2, BGProb: 0.7, BGBuffer: 4,
		IdleRate: 2, IdleDist: IdleDeterministic,
		Seed: 29, WarmupTime: 2000, MeasureTime: 4e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "CompBG", det.Metrics.CompBG, ana.CompBG, 0.02, 0.03)
	checkAgree(t, "QLenFG", det.Metrics.QLenFG, ana.QLenFG, 3*det.QLenFGHalf, 0.05)
}

func TestPHIdleValidation(t *testing.T) {
	idle, _ := phtype.Erlang(2, 4)
	ap := poisson(t, 1)
	if _, err := Run(Config{Arrival: ap, ServiceRate: 2, BGProb: 0.5, BGBuffer: 2,
		IdleRate: 1, IdleWait: idle, MeasureTime: 10}); err == nil {
		t.Error("both IdleRate and IdleWait accepted")
	}
	if _, err := Run(Config{Arrival: ap, ServiceRate: 2, BGProb: 0.5, BGBuffer: 2,
		IdleWait: idle, IdleDist: IdleDeterministic, MeasureTime: 10}); err == nil {
		t.Error("IdleWait with deterministic dist accepted")
	}
}

func TestServiceMAPAgreementWithAnalytic(t *testing.T) {
	// Correlated service times: chain vs simulator.
	mod, err := arrival.MMPP([]float64{3, 0.8},
		matFromRowsT(t, [][]float64{{-0.05, 0.05}, {0.03, -0.03}}))
	if err != nil {
		t.Fatal(err)
	}
	ap := poisson(t, 0.3)
	model, err := core.NewModel(core.Config{
		Arrival: ap, ServiceMAP: mod, BGProb: 0.6, BGBuffer: 3, IdleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Arrival: ap, ServiceMAP: mod, BGProb: 0.6, BGBuffer: 3, IdleRate: 1,
		Seed: 37, WarmupTime: 5000, MeasureTime: 8e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "QLenFG", r.Metrics.QLenFG, ana.QLenFG, 3*r.QLenFGHalf, 0.05)
	checkAgree(t, "CompBG", r.Metrics.CompBG, ana.CompBG, 0.015, 0.03)
	checkAgree(t, "UtilFG", r.Metrics.UtilFG, ana.UtilFG, 0.01, 0.03)
	checkAgree(t, "UtilBG", r.Metrics.UtilBG, ana.UtilBG, 0.01, 0.05)
	checkAgree(t, "WaitPFG", r.Metrics.WaitPFG, ana.WaitPFG, 0.01, 0.08)
}
