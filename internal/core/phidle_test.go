package core

import (
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/markov"
	"bgperf/internal/phtype"
)

func TestPHIdleConfigValidation(t *testing.T) {
	ap, _ := arrival.Poisson(1)
	idle, _ := phtype.Erlang(2, 4)
	if _, err := NewModel(Config{Arrival: ap, ServiceRate: 2, BGProb: 0.5, BGBuffer: 2, IdleRate: 1, IdleWait: idle}); err == nil {
		t.Error("both IdleRate and IdleWait accepted")
	}
	defective, err := phtype.Hyperexponential([]float64{1, 0}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(Config{Arrival: ap, ServiceRate: 2, BGProb: 0.5, BGBuffer: 2, IdleWait: defective}); err == nil {
		t.Error("unreachable idle phase accepted")
	}
}

func TestPHIdleExponentialEquivalence(t *testing.T) {
	// A one-phase PH idle wait is the IdleRate path; every metric matches.
	idle, err := phtype.Exponential(1.5)
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
	for _, policy := range []IdleWaitPolicy{IdleWaitPerJob, IdleWaitPerPeriod} {
		ref := solve(t, Config{Arrival: mmpp, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleRate: 1.5, IdlePolicy: policy})
		got := solve(t, Config{Arrival: mmpp, ServiceRate: 2, BGProb: 0.6, BGBuffer: 4, IdleWait: idle, IdlePolicy: policy})
		pairs := []struct {
			name string
			a, b float64
		}{
			{"QLenFG", ref.QLenFG, got.QLenFG},
			{"QLenBG", ref.QLenBG, got.QLenBG},
			{"CompBG", ref.CompBG, got.CompBG},
			{"WaitPFG", ref.WaitPFG, got.WaitPFG},
			{"ProbIdleWait", ref.ProbIdleWait, got.ProbIdleWait},
			{"UtilBG", ref.UtilBG, got.UtilBG},
		}
		for _, pr := range pairs {
			if math.Abs(pr.a-pr.b) > 1e-10*(1+math.Abs(pr.a)) {
				t.Errorf("%v %s: IdleRate %v vs PH(1) %v", policy, pr.name, pr.a, pr.b)
			}
		}
	}
}

func TestPHIdleBruteForce(t *testing.T) {
	idle, err := phtype.Erlang(3, 3) // mean 1, SCV 1/3
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	{
		ap, err := arrival.Poisson(0.3)
		if err != nil {
			t.Fatal(err)
		}
		cfg = Config{Arrival: ap, ServiceRate: 2, BGProb: 0.7, BGBuffer: 2, IdleWait: idle}
	}
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
	var qlenFG, utilBG, idleW float64
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
		{"UtilBG", s.UtilBG, utilBG},
		{"ProbIdleWait", s.ProbIdleWait, idleW},
	} {
		if math.Abs(c.got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("%s: matrix-geometric %v vs brute force %v", c.name, c.got, c.want)
		}
	}
}

func TestPHIdleErlangVsExponential(t *testing.T) {
	// An Erlang idle wait of the same mean is less variable: fewer very
	// short waits means fewer BG starts right before FG bursts, so the
	// delayed-FG fraction cannot rise.
	ap, err := arrival.Poisson(0.5)
	if err != nil {
		t.Fatal(err)
	}
	expo := solve(t, Config{Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 5, IdleRate: 2})
	erl, err := phtype.Erlang(8, 16) // mean 0.5 like IdleRate 2, SCV 1/8
	if err != nil {
		t.Fatal(err)
	}
	erlSol := solve(t, Config{Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 5, IdleWait: erl})
	// With Poisson arrivals the exponential lack-of-memory makes the wait
	// shape matter little for delays, but completion must drop: a near-
	// deterministic timer never fires "early", so fewer BG jobs start.
	if erlSol.CompBG >= expo.CompBG {
		t.Errorf("Erlang idle CompBG %v not below exponential %v", erlSol.CompBG, expo.CompBG)
	}
	if math.Abs(erlSol.UtilFG-expo.UtilFG) > 1e-9 {
		t.Errorf("FG utilization moved: %v vs %v", erlSol.UtilFG, expo.UtilFG)
	}
}

func TestPHIdleApproachesDeterministicSim(t *testing.T) {
	// Chain with an Erlang-16 idle wait ≈ simulator with a deterministic
	// timer of the same mean (the firmware case of the scrubbing example).
	// Checked in the sim package against the event simulator; here assert
	// the analytic trend: higher Erlang order → CompBG approaches a limit
	// monotonically from above.
	ap, err := arrival.Poisson(0.5)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = 2
	for _, k := range []int{1, 2, 4, 8, 16} {
		idle, err := phtype.Erlang(k, float64(k)*2) // mean 0.5
		if err != nil {
			t.Fatal(err)
		}
		s := solve(t, Config{Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 5, IdleWait: idle})
		if s.CompBG >= prev {
			t.Errorf("Erlang-%d CompBG %v not below Erlang-%d's %v", k, s.CompBG, k/2, prev)
		}
		prev = s.CompBG
	}
}
