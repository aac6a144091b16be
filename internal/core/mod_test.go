package core

import (
	"errors"
	"math"
	"testing"

	"bgperf/internal/markov"
)

// TestModFactorOneBitIdentical pins the degenerate-modulation contract: an
// explicit ModFactor of 1 under the default admission policy must reproduce
// the baseline model bit for bit — same cache key, same metrics to the last
// ulp — because the modulated kernels alias the baseline ones.
func TestModFactorOneBitIdentical(t *testing.T) {
	base := mmppCfg(t, 0.3, 1.0/6, 0.6, 5, 1.0/6)
	mod := base
	mod.ModFactor = 1
	mod.BGAdmit = AdmitAll

	kBase, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	kMod, err := CacheKey(mod)
	if err != nil {
		t.Fatal(err)
	}
	if kBase != kMod {
		t.Errorf("cache key drifted: baseline %s, φ=1 %s", kBase, kMod)
	}

	sBase := solve(t, base)
	sMod := solve(t, mod)
	if sBase.Metrics != sMod.Metrics {
		t.Errorf("φ=1 metrics differ from baseline:\nbase %+v\nφ=1  %+v", sBase.Metrics, sMod.Metrics)
	}
}

// TestBruteForceAgreementModulated validates the modulated chain against
// brute-force truncation: the matrix-geometric solve and a directly solved
// truncated generator must agree on masses, and the flow metrics must match
// sums computed from the stationary vector with the φ-scaled exit rates.
func TestBruteForceAgreementModulated(t *testing.T) {
	cfg := poissonCfg(t, 0.2, 2, 0.7, 2, 1.5)
	cfg.ModFactor = 0.6
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
	mu := cfg.ServiceRate
	phi := cfg.ModFactor
	var qlenFG, utilFG, utilBG, complFG, complDenied, tputBG float64
	idx := 0
	for j := 0; j <= maxLevel; j++ {
		for _, b := range m.levelBlocks(j) {
			mass := pi[idx] // exponential service, Poisson arrivals: 1 phase
			idx++
			qlenFG += float64(j) * mass
			speed := 1.0
			if b.x >= 1 {
				speed = phi
			}
			switch b.kind {
			case KindFG:
				utilFG += mass
				complFG += mass * mu * speed
				if b.x == cfg.BGBuffer {
					complDenied += mass * mu * speed
				}
			case KindBG:
				utilBG += mass
				tputBG += mass * mu * speed
			}
		}
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"QLenFG", s.QLenFG, qlenFG},
		{"UtilFG", s.UtilFG, utilFG},
		{"UtilBG", s.UtilBG, utilBG},
		{"ThroughputFG", s.ThroughputFG, complFG},
		{"ThroughputBG", s.ThroughputBG, tputBG},
		{"CompBG", s.CompBG, 1 - complDenied/complFG},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("%s: matrix-geometric %v vs brute force %v", c.name, c.got, c.want)
		}
	}
	// A slowed server spends strictly more time FG-serving than the
	// unmodulated λ/µ lower bound.
	if rho := 0.2 / mu; s.UtilFG <= rho {
		t.Errorf("UtilFG %v not above unmodulated load %v", s.UtilFG, rho)
	}
}

// TestBruteForceAgreementUtilThreshold validates the extended-boundary chain
// of the util-threshold admission policy against brute-force truncation.
func TestBruteForceAgreementUtilThreshold(t *testing.T) {
	cfg := poissonCfg(t, 0.25, 2, 0.8, 3, 1.2)
	cfg.BGAdmit = AdmitUtilThreshold
	cfg.FGThreshold = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boundary, _, err := m.qbdBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(boundary.Local), cfg.FGThreshold+2; got != want {
		t.Fatalf("%d boundary levels, want %d", got, want)
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
	mu := cfg.ServiceRate
	var qlenFG, qlenBG, complFG, complDenied float64
	idx := 0
	for j := 0; j <= maxLevel; j++ {
		for _, b := range m.levelBlocks(j) {
			mass := pi[idx]
			idx++
			qlenFG += float64(j) * mass
			qlenBG += float64(b.x) * mass
			if b.kind == KindFG {
				complFG += mass * mu
				if !m.admitBG(b, j-1, false) {
					complDenied += mass * mu
				}
			}
		}
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"QLenFG", s.QLenFG, qlenFG},
		{"QLenBG", s.QLenBG, qlenBG},
		{"CompBG", s.CompBG, 1 - complDenied/complFG},
		{"DropRateBG", s.DropRateBG, cfg.BGProb * complDenied},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("%s: matrix-geometric %v vs brute force %v", c.name, c.got, c.want)
		}
	}
	// The threshold policy drops strictly more BG work than blind admission.
	blind := solve(t, poissonCfg(t, 0.25, 2, 0.8, 3, 1.2))
	if !(s.CompBG < blind.CompBG) {
		t.Errorf("util-threshold CompBG %v not below AdmitAll %v", s.CompBG, blind.CompBG)
	}
}

// TestBruteForceAgreementDeadline validates the reneging chain of the
// deadline admission policy against brute-force truncation, including the
// BG flow balance admitted = completed + reneged.
func TestBruteForceAgreementDeadline(t *testing.T) {
	cfg := poissonCfg(t, 0.25, 2, 0.8, 3, 1.2)
	cfg.BGAdmit = AdmitDeadline
	cfg.DeadlineRate = 0.4
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
	mu := cfg.ServiceRate
	var qlenBG, waiting, tputBG, complFG, complFull float64
	idx := 0
	for j := 0; j <= maxLevel; j++ {
		for _, b := range m.levelBlocks(j) {
			mass := pi[idx]
			idx++
			qlenBG += float64(b.x) * mass
			w := b.x
			if b.kind == KindBG {
				w--
				tputBG += mass * mu
			}
			waiting += float64(w) * mass
			if b.kind == KindFG {
				complFG += mass * mu
				if b.x == cfg.BGBuffer {
					complFull += mass * mu
				}
			}
		}
	}
	admitted := cfg.BGProb * (complFG - complFull)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"QLenBG", s.QLenBG, qlenBG},
		{"ThroughputBG", s.ThroughputBG, tputBG},
		{"DeadlineMissBG", s.DeadlineMissBG, cfg.DeadlineRate * waiting / admitted},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("%s: matrix-geometric %v vs brute force %v", c.name, c.got, c.want)
		}
	}
	// Flow balance: every admitted BG job either completes or reneges.
	adm := s.GenRateBG - s.DropRateBG
	if miss := s.DeadlineMissBG * adm; math.Abs(adm-s.ThroughputBG-miss) > 1e-8 {
		t.Errorf("BG flow unbalanced: admitted %v, completed %v, reneged %v", adm, s.ThroughputBG, miss)
	}
	if s.DeadlineMissBG <= 0 || s.DeadlineMissBG >= 1 {
		t.Errorf("DeadlineMissBG = %v, want in (0,1)", s.DeadlineMissBG)
	}
}

// TestQLenFGMonotoneInModFactor pins the Marin–Mitrani monotonicity: a
// faster modulated server (larger φ) never lengthens the foreground queue.
func TestQLenFGMonotoneInModFactor(t *testing.T) {
	prev := math.Inf(1)
	for _, phi := range []float64{0.5, 0.65, 0.8, 0.9, 1} {
		cfg := mmppCfg(t, 0.3, 1.0/6, 0.6, 5, 1.0/6)
		cfg.ModFactor = phi
		s := solve(t, cfg)
		if s.QLenFG > prev+1e-9 {
			t.Errorf("QLenFG(φ=%g) = %v rose above %v", phi, s.QLenFG, prev)
		}
		prev = s.QLenFG
	}
}

// TestUtilThresholdHugeKMatchesAdmitAll pins that an effectively unbinding
// utilization threshold reproduces blind admission: the extended-boundary
// chain is a pure refactoring of the same process.
func TestUtilThresholdHugeKMatchesAdmitAll(t *testing.T) {
	base := mmppCfg(t, 0.3, 1.0/6, 0.6, 4, 1.0/6)
	blind := solve(t, base)
	thr := base
	thr.BGAdmit = AdmitUtilThreshold
	thr.FGThreshold = 40
	s := solve(t, thr)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"QLenFG", s.QLenFG, blind.QLenFG},
		{"QLenBG", s.QLenBG, blind.QLenBG},
		{"CompBG", s.CompBG, blind.CompBG},
		{"WaitPFG", s.WaitPFG, blind.WaitPFG},
		{"ThroughputBG", s.ThroughputBG, blind.ThroughputBG},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9*(1+math.Abs(c.want)) {
			t.Errorf("%s: huge-K threshold %v vs AdmitAll %v", c.name, c.got, c.want)
		}
	}
}

// TestDeadlineMissMonotoneInRate pins that a tighter deadline (larger δ)
// never lowers the miss fraction and never raises BG throughput.
func TestDeadlineMissMonotoneInRate(t *testing.T) {
	prevMiss := 0.0
	prevTput := math.Inf(1)
	for _, delta := range []float64{0.1, 0.3, 1, 3} {
		cfg := mmppCfg(t, 0.3, 1.0/6, 0.6, 5, 1.0/6)
		cfg.BGAdmit = AdmitDeadline
		cfg.DeadlineRate = delta
		s := solve(t, cfg)
		if s.DeadlineMissBG < prevMiss-1e-9 {
			t.Errorf("DeadlineMissBG(δ=%g) = %v fell below %v", delta, s.DeadlineMissBG, prevMiss)
		}
		if s.ThroughputBG > prevTput+1e-9 {
			t.Errorf("ThroughputBG(δ=%g) = %v rose above %v", delta, s.ThroughputBG, prevTput)
		}
		prevMiss = s.DeadlineMissBG
		prevTput = s.ThroughputBG
	}
}

// TestScenarioConfigValidation covers the new-field validation rules.
func TestScenarioConfigValidation(t *testing.T) {
	valid := func() Config { return poissonCfg(t, 0.2, 2, 0.5, 3, 1) }
	tests := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"negative mod factor", func(c *Config) { c.ModFactor = -0.5 }, "ModFactor"},
		{"mod factor above 1", func(c *Config) { c.ModFactor = 1.5 }, "ModFactor"},
		{"NaN mod factor", func(c *Config) { c.ModFactor = math.NaN() }, "ModFactor"},
		{"unknown admission", func(c *Config) { c.BGAdmit = 99 }, "BGAdmit"},
		{"negative threshold", func(c *Config) { c.BGAdmit = AdmitUtilThreshold; c.FGThreshold = -1 }, "FGThreshold"},
		{"threshold without policy", func(c *Config) { c.FGThreshold = 2 }, "FGThreshold"},
		{"deadline without rate", func(c *Config) { c.BGAdmit = AdmitDeadline }, "DeadlineRate"},
		{"rate without deadline", func(c *Config) { c.DeadlineRate = 0.5 }, "DeadlineRate"},
		{"negative class-2 probability", func(c *Config) { c.BG2Prob = -0.1 }, "BG2Prob"},
		{"class probabilities over 1", func(c *Config) { c.BG2Prob = 0.6 }, "BG2Prob"},
		{"negative class-2 buffer", func(c *Config) { c.BG2Prob = 0.2; c.BG2Buffer = -1 }, "BG2Buffer"},
		{"class 2 without idle rate", func(c *Config) { c.BGBuffer = 0; c.IdleRate = 0; c.BG2Buffer = 2 }, "IdleRate"},
		{"class 2 with util threshold", func(c *Config) { c.BG2Prob = 0.2; c.BGAdmit = AdmitUtilThreshold }, "BG2Prob"},
		{"class 2 with deadline", func(c *Config) {
			c.BG2Prob = 0.2
			c.BGAdmit = AdmitDeadline
			c.DeadlineRate = 0.5
		}, "BG2Prob"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid()
			tt.mutate(&cfg)
			_, err := NewModel(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("want *ValidationError, got %T: %v", err, err)
			}
			if verr.Field != tt.field {
				t.Errorf("error field %q, want %q", verr.Field, tt.field)
			}
		})
	}
	ok := valid()
	ok.ModFactor = 0.7
	ok.BGAdmit = AdmitUtilThreshold
	ok.FGThreshold = 3
	if _, err := NewModel(ok); err != nil {
		t.Errorf("valid modulated util-threshold config rejected: %v", err)
	}
}

// TestEnumRoundTrips pins Parse(v.String()) identity for every declared
// variant of every config enum, and typed errors for unknown inputs.
func TestEnumRoundTrips(t *testing.T) {
	for _, p := range []IdleWaitPolicy{IdleWaitPerJob, IdleWaitPerPeriod} {
		got, err := ParseIdleWaitPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseIdleWaitPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, a := range []BGAdmission{AdmitAll, AdmitUtilThreshold, AdmitDeadline} {
		got, err := ParseBGAdmission(a.String())
		if err != nil || got != a {
			t.Errorf("ParseBGAdmission(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for _, k := range []Kind{KindEmpty, KindFG, KindBG, KindIdle} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if got, err := ParseBGAdmission(""); err != nil || got != AdmitAll {
		t.Errorf("ParseBGAdmission(\"\") = %v, %v; want AdmitAll", got, err)
	}
	var verr *ValidationError
	for name, parse := range map[string]func(string) error{
		"ParseIdleWaitPolicy": func(s string) error { _, err := ParseIdleWaitPolicy(s); return err },
		"ParseBGAdmission":    func(s string) error { _, err := ParseBGAdmission(s); return err },
		"ParseKind":           func(s string) error { _, err := ParseKind(s); return err },
	} {
		err := parse("no-such-variant")
		if err == nil {
			t.Errorf("%s accepted an unknown variant", name)
			continue
		}
		if !errors.As(err, &verr) {
			t.Errorf("%s: want *ValidationError, got %T: %v", name, err, err)
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: error does not wrap ErrConfig", name)
		}
	}
}
