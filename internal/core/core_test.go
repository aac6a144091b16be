package core

import (
	"fmt"
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/qbd"
	"bgperf/internal/workload"
)

func poissonCfg(t testing.TB, lambda, mu, p float64, buf int, alpha float64) Config {
	t.Helper()
	ap, err := arrival.Poisson(lambda)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Arrival: ap, ServiceRate: mu, BGProb: p, BGBuffer: buf, IdleRate: alpha}
}

func mmppCfg(t testing.TB, util, mu, p float64, buf int, alpha float64) Config {
	t.Helper()
	m, err := arrival.MMPP2(0.9e-6, 1.9e-6, 1.0e-4, 3.5e-2) // paper's Soft.Dev.
	if err != nil {
		t.Fatal(err)
	}
	m, err = m.WithRate(util * mu)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Arrival: m, ServiceRate: mu, BGProb: p, BGBuffer: buf, IdleRate: alpha}
}

func solve(t testing.TB, cfg Config) *Solution {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	ap, _ := arrival.Poisson(1)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil arrival", Config{ServiceRate: 1}},
		{"zero service", Config{Arrival: ap}},
		{"negative p", Config{Arrival: ap, ServiceRate: 2, BGProb: -0.1}},
		{"p over 1", Config{Arrival: ap, ServiceRate: 2, BGProb: 1.1}},
		{"negative buffer", Config{Arrival: ap, ServiceRate: 2, BGBuffer: -1}},
		{"missing idle rate", Config{Arrival: ap, ServiceRate: 2, BGBuffer: 3}},
		{"bad policy", Config{Arrival: ap, ServiceRate: 2, BGBuffer: 1, IdleRate: 1, IdlePolicy: 99}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewModel(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	// The same defects with a second BG class present.
	t.Run("two-class", func(t *testing.T) {
		for _, tt := range tests {
			t.Run(tt.name, func(t *testing.T) {
				cfg := tt.cfg
				cfg.BG2Prob = 0.2
				if _, err := NewModel(cfg); err == nil {
					t.Error("invalid config accepted")
				}
			})
		}
	})
}

func TestDefaultsApplied(t *testing.T) {
	m, err := NewModel(poissonCfg(t, 1, 2, 0.5, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().IdlePolicy != IdleWaitPerJob {
		t.Errorf("default policy = %v, want per-job", m.Config().IdlePolicy)
	}
}

func TestLevelBlockLayout(t *testing.T) {
	m, err := NewModel(poissonCfg(t, 1, 2, 0.5, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewModel(twoClassCfg(t, poisson(t, 1), 2, 0.3, 0.3, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		m     *Model
		level int
		want  []block
	}{
		{m, 0, []block{
			{kind: KindEmpty},
			{kind: KindIdle, x: 1}, {kind: KindBG, x: 1},
			{kind: KindIdle, x: 2}, {kind: KindBG, x: 2},
		}},
		{m, 1, []block{
			{kind: KindFG, x: 0},
			{kind: KindFG, x: 1}, {kind: KindBG, x: 1},
			{kind: KindFG, x: 2}, {kind: KindBG, x: 2},
		}},
		{m, 4, []block{
			{kind: KindFG, x: 0},
			{kind: KindFG, x: 1}, {kind: KindBG, x: 1},
			{kind: KindFG, x: 2}, {kind: KindBG, x: 2},
		}},
		{two, 0, []block{
			{kind: KindEmpty},
			{kind: KindIdle, x2: 1}, {kind: KindBG2, x2: 1},
			{kind: KindIdle, x: 1}, {kind: KindBG, x: 1},
			{kind: KindIdle, x: 1, x2: 1}, {kind: KindBG, x: 1, x2: 1},
		}},
		{two, 1, []block{
			{kind: KindFG},
			{kind: KindFG, x2: 1}, {kind: KindBG2, x2: 1},
			{kind: KindFG, x: 1}, {kind: KindBG, x: 1},
			{kind: KindFG, x: 1, x2: 1}, {kind: KindBG, x: 1, x2: 1},
		}},
	}
	for _, tt := range tests {
		got := tt.m.levelBlocks(tt.level)
		if len(got) != len(tt.want) {
			t.Fatalf("level %d: %d blocks, want %d", tt.level, len(got), len(tt.want))
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("level %d block %d = %+v, want %+v", tt.level, i, got[i], tt.want[i])
			}
		}
	}
	// Under blind admission the boundary is level 0 alone.
	boundary, _, err := m.qbdBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(boundary.Local) != 1 {
		t.Errorf("%d boundary levels, want 1", len(boundary.Local))
	}
}

func TestGeneratorRowsSumZero(t *testing.T) {
	perPeriod := func(c Config) Config {
		c.IdlePolicy = IdleWaitPerPeriod
		return c
	}
	for _, group := range []struct {
		name    string
		configs []Config
	}{
		{"single-class", []Config{
			poissonCfg(t, 1, 2, 0.5, 2, 2),
			poissonCfg(t, 0.3, 2, 0.9, 5, 1.0/6),
			mmppCfg(t, 0.4, 1.0/6, 0.6, 5, 1.0/6),
			perPeriod(poissonCfg(t, 1, 2, 0.5, 3, 2)),
			poissonCfg(t, 1, 2, 0.7, 0, 0), // X = 0: drop everything
		}},
		// Symmetric, asymmetric buffers, MMPP, per-period.
		{"two-class", []Config{
			twoClassCfg(t, poisson(t, 1), 2, 0.3, 0.3, 2, 2, 1),
			twoClassCfg(t, poisson(t, 1), 2, 0.2, 0.5, 3, 1, 2),
			twoClassCfg(t, fastMMPP(t, 0.6), 2, 0.4, 0.3, 2, 2, 2),
			perPeriod(twoClassCfg(t, poisson(t, 1), 2, 0.3, 0.3, 2, 2, 1)),
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for i, cfg := range group.configs {
				m, err := NewModel(cfg)
				if err != nil {
					t.Fatalf("config %d: %v", i, err)
				}
				g := m.Generator(cfg.BGBuffer + cfg.BG2Buffer + 4)
				for r, s := range g.RowSums() {
					if math.Abs(s) > 1e-9 {
						t.Fatalf("config %d: generator row %d sums to %g", i, r, s)
					}
				}
			}
		})
	}
}

func TestPoissonNoBGReducesToMM1(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bg2Buffer int
	}{
		{"single-class", 0},
		// Buffers of both classes, but no BG work ever spawned.
		{"two-class", 3},
	} {
		t.Run(tc.name, func(t *testing.T) { checkNoBGReducesToMM1(t, tc.bg2Buffer) })
	}
}

func checkNoBGReducesToMM1(t *testing.T, bg2Buffer int) {
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		mu := 2.0
		cfg := poissonCfg(t, rho*mu, mu, 0, 3, 1)
		cfg.BG2Buffer = bg2Buffer
		s := solve(t, cfg)
		if want := rho / (1 - rho); math.Abs(s.QLenFG-want) > 1e-8 {
			t.Errorf("ρ=%v: QLenFG = %v, want %v (M/M/1)", rho, s.QLenFG, want)
		}
		if math.Abs(s.UtilFG-rho) > 1e-9 {
			t.Errorf("ρ=%v: UtilFG = %v", rho, s.UtilFG)
		}
		if math.Abs(s.ProbEmpty-(1-rho)) > 1e-9 {
			t.Errorf("ρ=%v: ProbEmpty = %v", rho, s.ProbEmpty)
		}
		if s.QLenBG != 0 || s.WaitPFG != 0 || s.UtilBG != 0 {
			t.Errorf("ρ=%v: BG metrics nonzero without BG work: %+v", rho, s.Metrics)
		}
		if s.CompBG != 1 {
			t.Errorf("ρ=%v: CompBG = %v, want 1 when p=0", rho, s.CompBG)
		}
		if s.BG2 != nil {
			t.Errorf("ρ=%v: class-2 metrics %+v without class-2 work", rho, *s.BG2)
		}
	}
}

func TestMMPPNoBGMatchesDirectQBD(t *testing.T) {
	// p = 0 must reduce the chain to a plain MMPP/M/1 queue, which we build
	// directly as an independent QBD.
	cfg := mmppCfg(t, 0.5, 1.0/6, 0, 5, 1.0/6)
	s := solve(t, cfg)

	d0 := cfg.Arrival.D0()
	d1 := cfg.Arrival.D1()
	mu := cfg.ServiceRate
	a := d0.Rows()
	muI := mat.Identity(a).Scale(mu)
	a1 := d0.SubMat(muI)
	proc, err := qbd.New(d1, a1, muI)
	if err != nil {
		t.Fatal(err)
	}
	b := qbd.Boundary{
		Local: []*mat.Matrix{d0.Clone()},
		Up:    []*mat.Matrix{d1.Clone()},
		Down:  []*mat.Matrix{nil},
	}
	ref, err := qbd.Solve(b, proc)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.MeanLevel(); math.Abs(s.QLenFG-want) > 1e-7*(1+want) {
		t.Errorf("QLenFG = %v, want %v (direct MMPP/M/1)", s.QLenFG, want)
	}
}

func TestThroughputMatchesArrivalRate(t *testing.T) {
	cfg := mmppCfg(t, 0.4, 1.0/6, 0.6, 5, 1.0/6)
	s := solve(t, cfg)
	lambda := cfg.Arrival.Rate()
	if math.Abs(s.ThroughputFG-lambda) > 1e-8*lambda {
		t.Errorf("ThroughputFG = %v, want λ = %v", s.ThroughputFG, lambda)
	}
}

func TestBGFlowBalance(t *testing.T) {
	// Admitted BG rate must equal BG completion rate: µp·P(FG) − drop = µ·P(BG),
	// for each class of a two-class model.
	perPeriod := func(c Config) Config {
		c.IdlePolicy = IdleWaitPerPeriod
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"poisson", poissonCfg(t, 0.5, 2, 0.6, 5, 2)},
		{"mmpp", mmppCfg(t, 0.3, 1.0/6, 0.9, 5, 1.0/6)},
		{"mmpp-per-period", perPeriod(mmppCfg(t, 0.3, 1.0/6, 0.9, 5, 1.0/6))},
		{"two-class", twoClassCfg(t, poisson(t, 0.8), 2, 0.4, 0.3, 3, 3, 1.5)},
		{"two-class-per-period", perPeriod(twoClassCfg(t, poisson(t, 0.8), 2, 0.4, 0.3, 3, 3, 1.5))},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBGFlowBalance(t, tc.cfg) })
	}
}

func checkBGFlowBalance(t *testing.T, cfg Config) {
	s := solve(t, cfg)
	if c := s.BG2; c != nil {
		if adm := c.GenRate - c.DropRate; math.Abs(adm-c.Throughput) > 1e-9*(1+adm) {
			t.Errorf("%v: class-2 admitted %v != throughput %v", cfg.IdlePolicy, adm, c.Throughput)
		}
		if frac := (c.GenRate - c.DropRate) / c.GenRate; math.Abs(frac-c.Comp) > 1e-9 {
			t.Errorf("class-2 Comp = %v, flow fraction %v", c.Comp, frac)
		}
		if total := s.UtilFG + s.UtilBG + c.Util + s.ProbIdleWait + s.ProbEmpty; math.Abs(total-1) > 1e-8 {
			t.Errorf("server-state probabilities sum to %v", total)
		}
	}
	admitted := s.GenRateBG - s.DropRateBG
	if math.Abs(admitted-s.ThroughputBG) > 1e-9*(1+s.ThroughputBG) {
		t.Errorf("%v: admitted %v != BG throughput %v", cfg.IdlePolicy, admitted, s.ThroughputBG)
	}
	// CompBG is the admitted fraction.
	if s.GenRateBG > 0 {
		if frac := admitted / s.GenRateBG; math.Abs(frac-s.CompBG) > 1e-9 {
			t.Errorf("CompBG = %v, flow fraction %v", s.CompBG, frac)
		}
	}
}

func TestIdleWaitFlowBalance(t *testing.T) {
	// Under the per-job policy every BG service begins with an idle-wait
	// expiry, so the macro-state balance α·P(idle-wait) = µ·P(BG serving)
	// holds exactly.
	for _, cfg := range []Config{
		poissonCfg(t, 0.5, 2, 0.6, 5, 3),
		mmppCfg(t, 0.2, 1.0/6, 0.9, 5, 1.0/12),
		twoClassCfg(t, poisson(t, 0.8), 2, 0.4, 0.3, 3, 3, 1.5), // µ·P(BG) of both classes
	} {
		s := solve(t, cfg)
		lhs := cfg.IdleRate * s.ProbIdleWait
		rhs := cfg.ServiceRate * s.UtilBG
		if s.BG2 != nil {
			rhs += cfg.ServiceRate * s.BG2.Util
		}
		if math.Abs(lhs-rhs) > 1e-10*(1+rhs) {
			t.Errorf("α·P(idle) = %v != µ·P(BG) = %v", lhs, rhs)
		}
	}
	// Under per-period draining the identity must break (BG services can
	// follow each other without a fresh wait).
	cfg := poissonCfg(t, 0.5, 2, 0.9, 5, 0.5)
	cfg.IdlePolicy = IdleWaitPerPeriod
	s := solve(t, cfg)
	if math.Abs(cfg.IdleRate*s.ProbIdleWait-cfg.ServiceRate*s.UtilBG) < 1e-9 {
		t.Error("per-period policy unexpectedly satisfies the per-job flow identity")
	}
}

func TestTotalMassOne(t *testing.T) {
	for _, cfg := range []Config{
		poissonCfg(t, 0.5, 2, 0.6, 5, 2),
		poissonCfg(t, 1.8, 2, 0.9, 1, 5),
		mmppCfg(t, 0.6, 1.0/6, 0.3, 5, 1.0/6),
	} {
		s := solve(t, cfg)
		if math.Abs(s.TotalMass()-1) > 1e-8 {
			t.Errorf("total mass = %v", s.TotalMass())
		}
	}
}

func TestZeroBufferDropsEverything(t *testing.T) {
	s := solve(t, poissonCfg(t, 1, 2, 0.8, 0, 0))
	if s.CompBG != 0 {
		t.Errorf("CompBG = %v, want 0 with no buffer", s.CompBG)
	}
	if s.QLenBG != 0 || s.UtilBG != 0 {
		t.Errorf("BG presence without buffer: %+v", s.Metrics)
	}
	// FG behaves exactly like M/M/1 regardless of p.
	if want := 0.5 / (1 - 0.5); math.Abs(s.QLenFG-want) > 1e-8 {
		t.Errorf("QLenFG = %v, want %v", s.QLenFG, want)
	}
}

func TestBruteForceAgreement(t *testing.T) {
	// Solve small instances by brute-force truncation of the global
	// generator and compare every metric. Low utilization keeps the
	// truncation error far below the tolerance.
	for _, tc := range []struct {
		name     string
		cfg      Config
		maxLevel int
	}{
		{"single-class", poissonCfg(t, 0.2, 2, 0.7, 2, 1.5), 60},
		{"two-class", twoClassCfg(t, poisson(t, 0.3), 2, 0.4, 0.4, 2, 2, 1.2), 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			pi, err := markov.StationaryCTMC(m.Generator(tc.maxLevel))
			if err != nil {
				t.Fatal(err)
			}
			var (
				qlenFG, qlenBG, utilFG, utilBG, idleW, empty, fullFG float64
				qlenBG2, utilBG2, fullFG2                            float64
			)
			idx := 0
			a := m.Phases()
			for j := 0; j <= tc.maxLevel; j++ {
				for _, b := range m.levelBlocks(j) {
					var mass float64
					for ph := 0; ph < a; ph++ {
						mass += pi[idx]
						idx++
					}
					qlenFG += float64(j) * mass
					qlenBG += float64(b.x) * mass
					qlenBG2 += float64(b.x2) * mass
					switch b.kind {
					case KindFG:
						utilFG += mass
						if b.x == cfg.BGBuffer {
							fullFG += mass
						}
						if b.x2 == cfg.BG2Buffer {
							fullFG2 += mass
						}
					case KindBG:
						utilBG += mass
					case KindBG2:
						utilBG2 += mass
					case KindIdle:
						idleW += mass
					case KindEmpty:
						empty += mass
					}
				}
			}
			checks := []struct {
				name      string
				got, want float64
			}{
				{"QLenFG", s.QLenFG, qlenFG},
				{"QLenBG", s.QLenBG, qlenBG},
				{"UtilFG", s.UtilFG, utilFG},
				{"UtilBG", s.UtilBG, utilBG},
				{"ProbIdleWait", s.ProbIdleWait, idleW},
				{"ProbEmpty", s.ProbEmpty, empty},
				{"CompBG", s.CompBG, 1 - fullFG/utilFG},
			}
			if c := s.BG2; c != nil {
				checks = append(checks, []struct {
					name      string
					got, want float64
				}{
					{"BG2.QLen", c.QLen, qlenBG2},
					{"BG2.Util", c.Util, utilBG2},
					{"BG2.Comp", c.Comp, 1 - fullFG2/utilFG},
				}...)
			}
			for _, c := range checks {
				if math.Abs(c.got-c.want) > 1e-6*(1+math.Abs(c.want)) {
					t.Errorf("%s: matrix-geometric %v vs brute force %v", c.name, c.got, c.want)
				}
			}
		})
	}
}

func TestBruteForceAgreementPerPeriodPolicy(t *testing.T) {
	cfg := poissonCfg(t, 0.3, 2, 0.9, 2, 0.8)
	cfg.IdlePolicy = IdleWaitPerPeriod
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
	var qlenFG, utilBG float64
	idx := 0
	for j := 0; j <= maxLevel; j++ {
		for _, b := range m.levelBlocks(j) {
			mass := pi[idx]
			idx++
			qlenFG += float64(j) * mass
			if b.kind == KindBG {
				utilBG += mass
			}
		}
	}
	if math.Abs(s.QLenFG-qlenFG) > 1e-6 {
		t.Errorf("QLenFG = %v, brute force %v", s.QLenFG, qlenFG)
	}
	if math.Abs(s.UtilBG-utilBG) > 1e-6 {
		t.Errorf("UtilBG = %v, brute force %v", s.UtilBG, utilBG)
	}
}

func TestIdlePolicyComparison(t *testing.T) {
	// Draining BG jobs back to back (per-period) completes at least as much
	// BG work as re-arming the timer per job, at the cost of more FG delay.
	base := mmppCfg(t, 0.3, 1.0/6, 0.6, 5, 1.0/6)
	perJob := solve(t, base)
	perPeriod := base
	perPeriod.IdlePolicy = IdleWaitPerPeriod
	pp := solve(t, perPeriod)
	if pp.CompBG < perJob.CompBG-1e-9 {
		t.Errorf("per-period CompBG %v < per-job %v", pp.CompBG, perJob.CompBG)
	}
	if pp.UtilBG < perJob.UtilBG-1e-9 {
		t.Errorf("per-period UtilBG %v < per-job %v", pp.UtilBG, perJob.UtilBG)
	}
}

func TestIdleRateTradeoff(t *testing.T) {
	// Paper Sec. 5.3: longer idle wait (smaller α) improves FG queue length
	// but hurts BG completion.
	mu := 1.0 / 6
	short := solve(t, mmppCfg(t, 0.3, mu, 0.6, 5, mu*4)) // wait = service/4
	long := solve(t, mmppCfg(t, 0.3, mu, 0.6, 5, mu/4))  // wait = 4·service
	if !(long.QLenFG < short.QLenFG) {
		t.Errorf("QLenFG: long wait %v, short wait %v — want long < short", long.QLenFG, short.QLenFG)
	}
	if !(long.CompBG < short.CompBG) {
		t.Errorf("CompBG: long wait %v, short wait %v — want long < short", long.CompBG, short.CompBG)
	}
	if !(long.WaitPFG < short.WaitPFG) {
		t.Errorf("WaitPFG: long wait %v, short wait %v — want long < short", long.WaitPFG, short.WaitPFG)
	}
}

func TestBGLoadRaisesFGQueue(t *testing.T) {
	mu := 1.0 / 6
	prev := -1.0
	for _, p := range []float64{0, 0.3, 0.9} {
		s := solve(t, mmppCfg(t, 0.3, mu, p, 5, mu))
		if s.QLenFG < prev-1e-12 {
			t.Errorf("QLenFG not monotone in p: p=%v gives %v after %v", p, s.QLenFG, prev)
		}
		prev = s.QLenFG
	}
}

func TestFGQueueDist(t *testing.T) {
	cfg := poissonCfg(t, 1, 2, 0.5, 3, 2)
	s := solve(t, cfg)
	dist := s.FGQueueDist(400)
	var sum, mean float64
	for n, p := range dist {
		if p < -1e-12 {
			t.Fatalf("P(y=%d) = %v < 0", n, p)
		}
		sum += p
		mean += float64(n) * p
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Errorf("FG queue distribution sums to %v", sum)
	}
	if math.Abs(mean-s.QLenFG) > 1e-6 {
		t.Errorf("distribution mean %v vs QLenFG %v", mean, s.QLenFG)
	}
}

func TestBGOccupancyDist(t *testing.T) {
	cfg := poissonCfg(t, 1, 2, 0.5, 3, 2)
	s := solve(t, cfg)
	dist := s.BGOccupancyDist()
	if len(dist) != 4 {
		t.Fatalf("got %d entries, want 4", len(dist))
	}
	var sum, mean float64
	for v, p := range dist {
		if p < -1e-12 {
			t.Fatalf("P(x=%d) = %v < 0", v, p)
		}
		sum += p
		mean += float64(v) * p
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Errorf("BG occupancy sums to %v", sum)
	}
	if math.Abs(mean-s.QLenBG) > 1e-8 {
		t.Errorf("distribution mean %v vs QLenBG %v", mean, s.QLenBG)
	}
}

func TestUnstableLoadRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"single-class", poissonCfg(t, 3, 2, 0.5, 3, 2)},
		{"two-class", twoClassCfg(t, poisson(t, 3), 2, 0.3, 0.3, 2, 2, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Solve(); err == nil {
				t.Error("overloaded system solved")
			}
		})
	}
}

func TestWaitPFGPoissonPASTA(t *testing.T) {
	// Poisson arrivals see time averages, so the fraction of FG arrivals
	// landing during BG service equals P(BG serving) exactly.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		s := solve(t, poissonCfg(t, 0.5, 2, p, 5, 2))
		if math.Abs(s.WaitPFG-s.UtilBG) > 1e-9 {
			t.Errorf("p=%v: WaitPFG = %v, PASTA expects UtilBG = %v", p, s.WaitPFG, s.UtilBG)
		}
	}
}

func TestWaitPFGBounded(t *testing.T) {
	// Even at p=0.9 the delayed fraction stays a modest minority. (Whether
	// it sits above or below the time-average P(BG serving) depends on load:
	// under bursty arrivals BG service concentrates in the low-rate MMPP
	// phase, which few arrivals observe — the simulator cross-validates the
	// arrival-weighted value.)
	mu := 1.0 / 6
	for _, util := range []float64{0.1, 0.3, 0.5} {
		s := solve(t, mmppCfg(t, util, mu, 0.9, 5, mu))
		if s.WaitPFG < 0 || s.WaitPFG > 0.35 {
			t.Errorf("util %v: WaitPFG = %v, want in [0, 0.35]", util, s.WaitPFG)
		}
	}
}

func TestFGUtilization(t *testing.T) {
	m, err := NewModel(poissonCfg(t, 1, 2, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.FGUtilization(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FGUtilization = %v, want 0.5", got)
	}
}

func TestKindStrings(t *testing.T) {
	if KindEmpty.String() == "" || KindFG.String() == "" || KindBG.String() == "" || KindIdle.String() == "" {
		t.Error("empty Kind strings")
	}
	if IdleWaitPerJob.String() != "per-job" || IdleWaitPerPeriod.String() != "per-period" {
		t.Error("unexpected policy strings")
	}
	if Kind(99).String() == "" || IdleWaitPolicy(99).String() == "" {
		t.Error("unknown values must still render")
	}
}

func BenchmarkSolvePaperDefault(b *testing.B) {
	cfg := mmppCfg(b, 0.3, 1.0/6, 0.6, 5, 1.0/6)
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLargeBuffer(b *testing.B) {
	cfg := mmppCfg(b, 0.3, 1.0/6, 0.6, 25, 1.0/6)
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFGQueueVarianceMM1(t *testing.T) {
	// M/M/1: Var(N) = ρ/(1−ρ)².
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		mu := 2.0
		s := solve(t, poissonCfg(t, rho*mu, mu, 0, 2, 1))
		want := rho / ((1 - rho) * (1 - rho))
		got := s.FGQueueStdDev() * s.FGQueueStdDev()
		if math.Abs(got-want) > 1e-7*(1+want) {
			t.Errorf("ρ=%v: Var(N) = %v, want %v", rho, got, want)
		}
	}
}

func TestFGQueueMoment2MatchesDistribution(t *testing.T) {
	cfg := mmppCfg(t, 0.3, 1.0/6, 0.6, 5, 1.0/6)
	s := solve(t, cfg)
	dist := s.FGQueueDist(3000)
	var m2 float64
	for n, p := range dist {
		m2 += float64(n) * float64(n) * p
	}
	if rel := math.Abs(m2-s.FGQueueMoment2()) / (1 + s.FGQueueMoment2()); rel > 1e-5 {
		t.Errorf("E[y²] from distribution %v vs closed form %v", m2, s.FGQueueMoment2())
	}
}

func TestRespTimeBGLittle(t *testing.T) {
	cfg := poissonCfg(t, 0.8, 2, 0.6, 5, 1.5)
	s := solve(t, cfg)
	// By construction RespTimeBG·(admitted rate) = QLenBG; check the value
	// is sensible: at least one service time plus idle wait.
	if s.RespTimeBG < 1/cfg.ServiceRate {
		t.Errorf("RespTimeBG = %v below a single service time", s.RespTimeBG)
	}
	admitted := s.GenRateBG - s.DropRateBG
	if math.Abs(s.RespTimeBG*admitted-s.QLenBG) > 1e-9 {
		t.Error("Little identity violated for BG class")
	}
}

func TestOrder3MMPPBruteForce(t *testing.T) {
	// The chain accepts arbitrary-order MAPs; verify an order-3 MMPP
	// end to end against a brute-force truncated solve.
	mod := mat.MustFromRows([][]float64{
		{-0.04, 0.02, 0.02},
		{0.01, -0.02, 0.01},
		{0.004, 0.006, -0.01},
	})
	// Mild burstiness keeps the stationary tail inside the brute-force
	// truncation window.
	ap, err := arrival.MMPP([]float64{0.6, 0.25, 0.08}, mod)
	if err != nil {
		t.Fatal(err)
	}
	ap, err = ap.WithRate(0.2 * 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arrival: ap, ServiceRate: 2, BGProb: 0.6, BGBuffer: 2, IdleRate: 1}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	const maxLevel = 80
	pi, err := markov.StationaryCTMC(m.Generator(maxLevel))
	if err != nil {
		t.Fatal(err)
	}
	var qlenFG, utilBG float64
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
			if b.kind == KindBG {
				utilBG += mass
			}
		}
	}
	if math.Abs(s.QLenFG-qlenFG) > 1e-5*(1+qlenFG) {
		t.Errorf("QLenFG = %v, brute force %v", s.QLenFG, qlenFG)
	}
	// Tolerance reflects the brute-force truncation tail at maxLevel.
	if math.Abs(s.UtilBG-utilBG) > 1e-5*(1+utilBG) {
		t.Errorf("UtilBG = %v, brute force %v", s.UtilBG, utilBG)
	}
}

func TestTailDecayRateMM1(t *testing.T) {
	// M/M/1: P(N=n+1)/P(N=n) = ρ exactly.
	s := solve(t, poissonCfg(t, 1.2, 2, 0, 1, 1))
	if math.Abs(s.TailDecayRate()-0.6) > 1e-9 {
		t.Errorf("tail decay = %v, want 0.6", s.TailDecayRate())
	}
}

func TestTailDecayOrdersWorkloads(t *testing.T) {
	// At matched utilization the high-ACF workload has the heavier tail.
	mu := 1.0 / 6
	email := solve(t, mmppCfg(t, 0.3, mu, 0.3, 5, mu))
	pois := solve(t, poissonCfg(t, 0.3*mu, mu, 0.3, 5, mu))
	if email.TailDecayRate() <= pois.TailDecayRate() {
		t.Errorf("decay: bursty %v not above Poisson %v", email.TailDecayRate(), pois.TailDecayRate())
	}
}

func TestFGQueueQuantile(t *testing.T) {
	// M/M/1 at ρ=0.5: P(N ≤ n) = 1 − ρ^{n+1}; the 0.9 quantile is the
	// smallest n with 0.5^{n+1} ≤ 0.1 → n = 3.
	s := solve(t, poissonCfg(t, 1, 2, 0, 1, 1))
	n, err := s.FGQueueQuantile(0.9)
	if err != nil || n != 3 {
		t.Errorf("q90 = %v, %v; want 3", n, err)
	}
	if _, err := s.FGQueueQuantile(1.5); err == nil {
		t.Error("quantile outside (0,1) accepted")
	}
	// Median of a mostly-empty system is 0.
	n, err = s.FGQueueQuantile(0.5)
	if err != nil || n != 0 {
		t.Errorf("q50 = %v, %v; want 0", n, err)
	}
}

// BenchmarkSolveLarge times cold model builds and solves of the large-state
// points the daemon's sweep benchmark draws (its sweep_large grid): the
// email (utilization 0.2) and softdev (0.3) workloads at p = 0.6 with
// buffers X = 10, 30, 50, and the softdev capacity-modulated deadline point
// (φ = 0.7, δ = 0.4) at X = 20 and 50. Run it with -benchmem.
func BenchmarkSolveLarge(b *testing.B) {
	type point struct {
		name     string
		load     func() (*arrival.MAP, error)
		util     float64
		x        int
		deadline bool
	}
	var pts []point
	for _, w := range []struct {
		name string
		load func() (*arrival.MAP, error)
		util float64
	}{{"email", workload.Email, 0.2}, {"softdev", workload.SoftwareDevelopment, 0.3}} {
		for _, x := range []int{10, 30, 50} {
			pts = append(pts, point{fmt.Sprintf("%s/X=%d", w.name, x), w.load, w.util, x, false})
		}
	}
	for _, x := range []int{20, 50} {
		pts = append(pts, point{fmt.Sprintf("deadline/X=%d", x), workload.SoftwareDevelopment, 0.3, x, true})
	}
	for _, pt := range pts {
		b.Run(pt.name, func(b *testing.B) {
			base, err := pt.load()
			if err != nil {
				b.Fatal(err)
			}
			arr, err := workload.AtUtilization(base, pt.util)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{
				Arrival: arr, ServiceRate: workload.ServiceRatePerMs,
				BGProb: 0.6, BGBuffer: pt.x, IdleRate: 1 / workload.MeanServiceTimeMs,
			}
			if pt.deadline {
				cfg.ModFactor, cfg.BGAdmit, cfg.DeadlineRate = 0.7, AdmitDeadline, 0.4
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewModel(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
