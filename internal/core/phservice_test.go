package core

import (
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/phtype"
)

func phCfg(t testing.TB, lambda float64, svc *phtype.Dist, p float64, buf int, alpha float64) Config {
	t.Helper()
	ap, err := arrival.Poisson(lambda)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Arrival: ap, Service: svc, BGProb: p, BGBuffer: buf, IdleRate: alpha}
}

func TestPHServiceConfigValidation(t *testing.T) {
	ap, _ := arrival.Poisson(1)
	svc, _ := phtype.Erlang(2, 4)
	if _, err := NewModel(Config{Arrival: ap, ServiceRate: 2, Service: svc}); err == nil {
		t.Error("both ServiceRate and Service accepted")
	}
	// An H2 with a zero-probability branch has an unreachable phase.
	defective, err := phtype.Hyperexponential([]float64{1, 0}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(Config{Arrival: ap, Service: defective}); err == nil {
		t.Error("unreachable service phase accepted")
	}
}

func TestPHExponentialEquivalence(t *testing.T) {
	// A one-phase PH service is the exponential model; every metric must
	// match the ServiceRate path exactly.
	expo, err := phtype.Exponential(2)
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err := arrival.MMPP2(0.01, 0.02, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err = mmpp.WithRate(0.35 * 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []IdleWaitPolicy{IdleWaitPerJob, IdleWaitPerPeriod} {
		ref := solve(t, Config{Arrival: mmpp, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleRate: 1.5, IdlePolicy: policy})
		got := solve(t, Config{Arrival: mmpp, Service: expo, BGProb: 0.6, BGBuffer: 4, IdleRate: 1.5, IdlePolicy: policy})
		pairs := []struct {
			name string
			a, b float64
		}{
			{"QLenFG", ref.QLenFG, got.QLenFG},
			{"QLenBG", ref.QLenBG, got.QLenBG},
			{"CompBG", ref.CompBG, got.CompBG},
			{"WaitPFG", ref.WaitPFG, got.WaitPFG},
			{"UtilFG", ref.UtilFG, got.UtilFG},
			{"UtilBG", ref.UtilBG, got.UtilBG},
			{"ThroughputBG", ref.ThroughputBG, got.ThroughputBG},
			{"GenRateBG", ref.GenRateBG, got.GenRateBG},
		}
		for _, pr := range pairs {
			if math.Abs(pr.a-pr.b) > 1e-10*(1+math.Abs(pr.a)) {
				t.Errorf("%v %s: exponential %v vs PH(1) %v", policy, pr.name, pr.a, pr.b)
			}
		}
	}
}

func TestPHServiceMatchesPollaczekKhinchine(t *testing.T) {
	// With Poisson arrivals and p = 0 the model is an M/PH/1 queue:
	// E[N] = ρ + ρ²(1+cs²)/(2(1−ρ)).
	services := []struct {
		name string
		svc  func() (*phtype.Dist, error)
		cs2  float64
	}{
		{"Erlang-2", func() (*phtype.Dist, error) { return phtype.Erlang(2, 4) }, 0.5},
		{"Erlang-4", func() (*phtype.Dist, error) { return phtype.Erlang(4, 8) }, 0.25},
		{"H2", func() (*phtype.Dist, error) { return phtype.FitTwoMoment(0.5, 4) }, 4},
	}
	for _, tt := range services {
		svc, err := tt.svc()
		if err != nil {
			t.Fatal(err)
		}
		for _, rho := range []float64{0.3, 0.7} {
			lambda := rho / svc.Mean()
			s := solve(t, phCfg(t, lambda, svc, 0, 2, 1))
			want := rho + rho*rho*(1+tt.cs2)/(2*(1-rho))
			if math.Abs(s.QLenFG-want) > 1e-7*(1+want) {
				t.Errorf("%s ρ=%v: E[N] = %v, P-K %v", tt.name, rho, s.QLenFG, want)
			}
			if math.Abs(s.UtilFG-rho) > 1e-9 {
				t.Errorf("%s ρ=%v: UtilFG = %v", tt.name, rho, s.UtilFG)
			}
		}
	}
}

func TestPHServiceBruteForce(t *testing.T) {
	svc, err := phtype.Erlang(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := phCfg(t, 0.25, svc, 0.7, 2, 1.1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	const maxLevel = 60
	pi, err := markov.StationaryCTMC(m.Generator(maxLevel))
	if err != nil {
		t.Fatal(err)
	}
	var qlenFG, utilFG, utilBG, idleW float64
	idx := 0
	a := m.Phases()
	for j := 0; j <= maxLevel; j++ {
		for _, b := range m.levelBlocks(j) {
			var mass float64
			for ph := 0; ph < a; ph++ {
				mass += pi[idx]
				idx++
			}
			qlenFG += float64(j) * mass
			switch b.kind {
			case KindFG:
				utilFG += mass
			case KindBG:
				utilBG += mass
			case KindIdle:
				idleW += mass
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"QLenFG", s.QLenFG, qlenFG},
		{"UtilFG", s.UtilFG, utilFG},
		{"UtilBG", s.UtilBG, utilBG},
		{"ProbIdleWait", s.ProbIdleWait, idleW},
	} {
		if math.Abs(c.got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("%s: matrix-geometric %v vs brute force %v", c.name, c.got, c.want)
		}
	}
}

func TestServiceVariabilityHurts(t *testing.T) {
	// At a fixed mean, more variable service inflates the FG queue and (by
	// stretching busy periods and delaying idle windows) reduces neither
	// monotonically nor trivially the BG completion — assert the queue
	// ordering, which is the P-K-driven certainty.
	ap, err := arrival.Poisson(1.2)
	if err != nil {
		t.Fatal(err)
	}
	var prevQ float64
	for i, scv := range []float64{0.25, 1, 4} {
		svc, err := phtype.FitTwoMoment(0.5, scv)
		if err != nil {
			t.Fatal(err)
		}
		s := solve(t, Config{Arrival: ap, Service: svc, BGProb: 0.5, BGBuffer: 5, IdleRate: 2})
		if i > 0 && s.QLenFG <= prevQ {
			t.Errorf("scv %v: QLenFG %v not above previous %v", scv, s.QLenFG, prevQ)
		}
		prevQ = s.QLenFG
	}
}

func TestPHThroughputMatchesLambda(t *testing.T) {
	svc, err := phtype.Erlang(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := phCfg(t, 0.9, svc, 0.4, 3, 1)
	s := solve(t, cfg)
	if math.Abs(s.ThroughputFG-0.9) > 1e-8 {
		t.Errorf("ThroughputFG = %v, want λ = 0.9", s.ThroughputFG)
	}
	// Flow balance still holds with PH service.
	if adm := s.GenRateBG - s.DropRateBG; math.Abs(adm-s.ThroughputBG) > 1e-9*(1+adm) {
		t.Errorf("admitted %v != BG throughput %v", adm, s.ThroughputBG)
	}
	if math.Abs(s.TotalMass()-1) > 1e-8 {
		t.Errorf("total mass %v", s.TotalMass())
	}
}

func TestPHServiceRateAccessor(t *testing.T) {
	svc, err := phtype.Erlang(4, 2) // mean 2 → rate 0.5
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(phCfg(t, 0.2, svc, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ServiceRate()-0.5) > 1e-12 {
		t.Errorf("ServiceRate = %v, want 0.5", m.ServiceRate())
	}
	if math.Abs(m.FGUtilization()-0.4) > 1e-12 {
		t.Errorf("FGUtilization = %v, want 0.4", m.FGUtilization())
	}
	if m.Phases() != 4 { // Poisson (1) × Erlang-4
		t.Errorf("Phases = %d, want 4", m.Phases())
	}
}

func TestPHGeneratorRowsSumZero(t *testing.T) {
	svc, err := phtype.FitTwoMoment(1, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err := arrival.MMPP2(0.05, 0.1, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Config{Arrival: mmpp, Service: svc, BGProb: 0.5, BGBuffer: 2, IdleRate: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Generator(6)
	for r, sum := range g.RowSums() {
		if math.Abs(sum) > 1e-9 {
			t.Fatalf("row %d sums to %g", r, sum)
		}
	}
	if err := markov.CheckGenerator(g, 1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestPHKroneckerStructure(t *testing.T) {
	// The composite arrival block must be F ⊗ I_S: check one entry pattern.
	svc, _ := phtype.Erlang(2, 4)
	ap, _ := arrival.MMPP2(0.1, 0.2, 1, 0.3)
	m, err := NewModel(Config{Arrival: ap, Service: svc, BGProb: 0.5, BGBuffer: 1, IdleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	d1 := ap.D1()
	want := d1.Kron(mat.Identity(2))
	if !m.fServe.Equalf(want, 1e-15) {
		t.Error("fServe != D1 ⊗ I_S")
	}
}
