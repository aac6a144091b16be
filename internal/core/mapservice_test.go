package core

import (
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/phtype"
)

// phAsMAP rewrites a PH renewal distribution as a service MAP
// (D0 = T, D1 = t·β): same marginal law, independent consecutive services.
func phAsMAP(t *testing.T, d *phtype.Dist) *arrival.MAP {
	t.Helper()
	tm := d.T()
	exit := d.ExitRates()
	beta := d.Beta()
	n := d.Order()
	d1 := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d1.Set(i, j, exit[i]*beta[j])
		}
	}
	m, err := arrival.New(tm, d1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServiceMAPConfigValidation(t *testing.T) {
	ap, _ := arrival.Poisson(1)
	svcMAP := phAsMAP(t, phtype.MustNew([]float64{1}, mat.MustFromRows([][]float64{{-2}})))
	if _, err := NewModel(Config{Arrival: ap, ServiceRate: 2, ServiceMAP: svcMAP}); err == nil {
		t.Error("ServiceRate + ServiceMAP accepted")
	}
	svc, _ := phtype.Erlang(2, 4)
	if _, err := NewModel(Config{Arrival: ap, Service: svc, ServiceMAP: svcMAP}); err == nil {
		t.Error("Service + ServiceMAP accepted")
	}
}

func TestServiceMAPExponentialEquivalence(t *testing.T) {
	// An exponential service MAP is the plain model.
	expo, err := arrival.Poisson(2) // D0=−2, D1=2: exponential "services"
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err := arrival.MMPP2(0.01, 0.02, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err = mmpp.WithRate(0.3 * 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := solve(t, Config{Arrival: mmpp, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleRate: 1.5})
	got := solve(t, Config{Arrival: mmpp, ServiceMAP: expo, BGProb: 0.6, BGBuffer: 4, IdleRate: 1.5})
	pairs := []struct {
		name string
		a, b float64
	}{
		{"QLenFG", ref.QLenFG, got.QLenFG},
		{"QLenBG", ref.QLenBG, got.QLenBG},
		{"CompBG", ref.CompBG, got.CompBG},
		{"WaitPFG", ref.WaitPFG, got.WaitPFG},
		{"ThroughputBG", ref.ThroughputBG, got.ThroughputBG},
	}
	for _, pr := range pairs {
		if math.Abs(pr.a-pr.b) > 1e-10*(1+math.Abs(pr.a)) {
			t.Errorf("%s: exponential %v vs MAP(1) %v", pr.name, pr.a, pr.b)
		}
	}
}

func TestServiceMAPRenewalMatchesPH(t *testing.T) {
	// A PH law written as a renewal service MAP must reproduce the PH-service
	// model exactly: same marginals, no correlation.
	svc, err := phtype.Erlang(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := arrival.Poisson(0.8)
	if err != nil {
		t.Fatal(err)
	}
	ref := solve(t, Config{Arrival: ap, Service: svc, BGProb: 0.6, BGBuffer: 3, IdleRate: 1})
	got := solve(t, Config{Arrival: ap, ServiceMAP: phAsMAP(t, svc), BGProb: 0.6, BGBuffer: 3, IdleRate: 1})
	pairs := []struct {
		name string
		a, b float64
	}{
		{"QLenFG", ref.QLenFG, got.QLenFG},
		{"QLenBG", ref.QLenBG, got.QLenBG},
		{"CompBG", ref.CompBG, got.CompBG},
		{"WaitPFG", ref.WaitPFG, got.WaitPFG},
		{"UtilBG", ref.UtilBG, got.UtilBG},
		{"ProbEmpty", ref.ProbEmpty, got.ProbEmpty},
	}
	for _, pr := range pairs {
		if math.Abs(pr.a-pr.b) > 1e-9*(1+math.Abs(pr.a)) {
			t.Errorf("%s: PH %v vs renewal MAP %v", pr.name, pr.a, pr.b)
		}
	}
}

func TestServiceMAPBruteForce(t *testing.T) {
	// A genuinely correlated service MAP (modulated service speed).
	mod := mat.MustFromRows([][]float64{{-0.05, 0.05}, {0.03, -0.03}})
	svcMAP, err := arrival.MMPP([]float64{3, 0.8}, mod)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := arrival.Poisson(0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arrival: ap, ServiceMAP: svcMAP, BGProb: 0.7, BGBuffer: 2, IdleRate: 1}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	const maxLevel = 70
	pi, err := markov.StationaryCTMC(m.Generator(maxLevel))
	if err != nil {
		t.Fatal(err)
	}
	var qlenFG, utilFG, utilBG float64
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
	} {
		if math.Abs(c.got-c.want) > 1e-5*(1+math.Abs(c.want)) {
			t.Errorf("%s: matrix-geometric %v vs brute force %v", c.name, c.got, c.want)
		}
	}
	// Throughput must still equal the arrival rate.
	if math.Abs(s.ThroughputFG-0.3) > 1e-8 {
		t.Errorf("ThroughputFG = %v, want 0.3", s.ThroughputFG)
	}
}

func TestServiceCorrelationHurts(t *testing.T) {
	// Correlated service (slow streaks) inflates the queue beyond a renewal
	// service with the same marginal distribution.
	mod := mat.MustFromRows([][]float64{{-0.02, 0.02}, {0.02, -0.02}})
	corr, err := arrival.MMPP([]float64{4, 0.8}, mod)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := arrival.Poisson(0.6)
	if err != nil {
		t.Fatal(err)
	}
	corrSol := solve(t, Config{Arrival: ap, ServiceMAP: corr, BGProb: 0.3, BGBuffer: 3, IdleRate: 1})
	// Renewal counterpart: same inter-event marginal, independence.
	// A hyperexponential with the MAP's first two moments is close enough
	// for the qualitative ordering.
	h2, err := phtype.FitTwoMoment(corr.MeanInterarrival(), corr.SCV())
	if err != nil {
		t.Fatal(err)
	}
	renSol := solve(t, Config{Arrival: ap, Service: h2, BGProb: 0.3, BGBuffer: 3, IdleRate: 1})
	if corrSol.QLenFG <= renSol.QLenFG {
		t.Errorf("correlated service QLenFG %v not above renewal %v", corrSol.QLenFG, renSol.QLenFG)
	}
}
