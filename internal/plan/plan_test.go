package plan

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"bgperf/internal/core"
	"bgperf/internal/workload"
)

// baseConfig is the Fig.-5 style base point: email workload at 20% FG load,
// paper defaults for buffer and idle wait.
func baseConfig(t *testing.T) core.Config {
	t.Helper()
	m, err := workload.Email()
	if err != nil {
		t.Fatal(err)
	}
	if m, err = workload.AtUtilization(m, 0.2); err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Arrival:     m,
		ServiceRate: workload.ServiceRatePerMs,
		BGProb:      0.3,
		BGBuffer:    5,
		IdleRate:    workload.ServiceRatePerMs,
	}
}

// solveAt forward-solves cfg with the decision variable forced to val.
func solveAt(t *testing.T, cfg core.Config, v Var, val float64) core.Metrics {
	t.Helper()
	switch v {
	case VarBGProb:
		cfg.BGProb = val
	case VarBGBuffer:
		cfg.BGBuffer = int(math.Round(val))
	case VarIdleRate:
		cfg.IdleRate = val
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return sol.Metrics
}

func TestMaximizePRecoversForwardSolve(t *testing.T) {
	cfg := baseConfig(t)
	// The bound is the solved QLenFG at p = 0.5, so the frontier must come
	// back within one tolerance of 0.5 (QLenFG is monotone in p).
	target := solveAt(t, cfg, VarBGProb, 0.5).QLenFG
	res, err := Maximize(cfg, SLO{QLenFG: target}, Options{Var: VarBGProb})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-0.5) > 2*DefaultTol {
		t.Fatalf("frontier p = %g, want 0.5 ± %g", res.Value, 2*DefaultTol)
	}
	if res.AtCap {
		t.Fatal("interior frontier must not report AtCap")
	}
	slo := SLO{QLenFG: target}
	if !slo.Holds(solveAt(t, cfg, VarBGProb, res.Value)) {
		t.Fatalf("SLO must hold at the returned frontier p = %g", res.Value)
	}
	if slo.Holds(solveAt(t, cfg, VarBGProb, res.Bracket)) {
		t.Fatalf("SLO must fail at the bracket p = %g", res.Bracket)
	}
	if res.Bracket-res.Value > DefaultTol {
		t.Fatalf("bracket width %g exceeds tolerance", res.Bracket-res.Value)
	}
	if res.Solves < res.Iterations {
		t.Fatalf("solve count %d below iteration count %d", res.Solves, res.Iterations)
	}
	if len(res.Neighborhood) < 2 {
		t.Fatalf("want a sensitivity neighborhood, got %d points", len(res.Neighborhood))
	}
	for i := 1; i < len(res.Neighborhood); i++ {
		if res.Neighborhood[i].Value <= res.Neighborhood[i-1].Value {
			t.Fatal("neighborhood must be strictly ascending")
		}
	}
}

func TestMaximizeAtCap(t *testing.T) {
	cfg := baseConfig(t)
	// A bound far above the p = 1 metrics is met everywhere: the search
	// reports the domain cap, not a fake frontier.
	loose := 10 * solveAt(t, cfg, VarBGProb, 1).QLenFG
	res, err := Maximize(cfg, SLO{QLenFG: loose}, Options{Var: VarBGProb})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AtCap || res.Value != 1 || res.Bracket != 0 {
		t.Fatalf("want AtCap at p = 1 with zero bracket, got %+v", res)
	}
}

func TestMaximizeInfeasible(t *testing.T) {
	cfg := baseConfig(t)
	// Half the p = 0 queue length is unattainable: no BG admission policy
	// can push FG delay below the no-background baseline.
	impossible := 0.5 * solveAt(t, cfg, VarBGProb, 0).QLenFG
	for _, v := range []Var{VarBGProb, VarBGBuffer, VarIdleRate} {
		_, err := Maximize(cfg, SLO{QLenFG: impossible}, Options{Var: v})
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("var %s: want ErrInfeasible, got %v", v, err)
		}
	}
}

func TestMaximizeUnstableIsInfeasible(t *testing.T) {
	cfg := baseConfig(t)
	m, err := cfg.Arrival.WithRate(1.2 * workload.ServiceRatePerMs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arrival = m
	// Every variable, φ included, blames the foreground load: at φ = 1 no
	// modulation is left to lift.
	for _, v := range []Var{VarBGProb, VarBGBuffer, VarIdleRate, VarModFactor} {
		_, err = Maximize(cfg, SLO{QLenFG: 100}, Options{Var: v})
		if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "foreground load alone saturates the server") {
			t.Errorf("var=%s, saturated FG load: want the saturation ErrInfeasible, got %v", v, err)
		}
	}
}

func TestMaximizeBufferInteger(t *testing.T) {
	cfg := baseConfig(t)
	cfg.BGProb = 0.6
	// Bound at the X = 3 queue length: the integer search must land exactly
	// on 3 with bracket 4 (QLenFG is monotone non-decreasing in X).
	target := solveAt(t, cfg, VarBGBuffer, 3).QLenFG
	res, err := Maximize(cfg, SLO{QLenFG: target}, Options{Var: VarBGBuffer})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Fatalf("frontier X = %g, want 3", res.Value)
	}
	if !res.AtCap && res.Bracket != 4 {
		t.Fatalf("bracket X = %g, want 4", res.Bracket)
	}
	slo := SLO{QLenFG: target}
	if slo.Holds(solveAt(t, cfg, VarBGBuffer, res.Bracket)) {
		t.Fatal("SLO must fail one buffer slot past the frontier")
	}
}

func TestMaximizeAlphaMonotoneFrontier(t *testing.T) {
	cfg := baseConfig(t)
	cfg.BGProb = 0.8
	// A tighter SLO must admit at most the idle rate a looser one does.
	tight := solveAt(t, cfg, VarIdleRate, workload.ServiceRatePerMs).QLenFG
	loose := solveAt(t, cfg, VarIdleRate, 4*workload.ServiceRatePerMs).QLenFG
	if loose <= tight {
		t.Fatalf("precondition: QLenFG must grow with alpha (tight %g, loose %g)", tight, loose)
	}
	rTight, err := Maximize(cfg, SLO{QLenFG: tight}, Options{Var: VarIdleRate})
	if err != nil {
		t.Fatal(err)
	}
	rLoose, err := Maximize(cfg, SLO{QLenFG: loose}, Options{Var: VarIdleRate})
	if err != nil {
		t.Fatal(err)
	}
	if rTight.Value > rLoose.Value {
		t.Fatalf("tighter SLO admitted more idle rate: %g > %g", rTight.Value, rLoose.Value)
	}
	slo := SLO{QLenFG: tight}
	if !slo.Holds(solveAt(t, cfg, VarIdleRate, rTight.Value)) {
		t.Fatal("SLO must hold at the alpha frontier")
	}
	if !rTight.AtCap && slo.Holds(solveAt(t, cfg, VarIdleRate, rTight.Bracket)) {
		t.Fatal("SLO must fail at the alpha bracket")
	}
}

func TestMaximizeDeterministicAcrossWorkers(t *testing.T) {
	cfg := baseConfig(t)
	target := solveAt(t, cfg, VarBGProb, 0.4).QLenFG
	r1, err := Maximize(cfg, SLO{QLenFG: target}, Options{Var: VarBGProb, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Maximize(cfg, SLO{QLenFG: target}, Options{Var: VarBGProb, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != r4.Value || r1.Solves != r4.Solves || len(r1.Neighborhood) != len(r4.Neighborhood) {
		t.Fatalf("worker count changed the plan: %+v vs %+v", r1, r4)
	}
	for i := range r1.Neighborhood {
		if r1.Neighborhood[i] != r4.Neighborhood[i] {
			t.Fatalf("neighborhood point %d differs across worker counts", i)
		}
	}
}

func TestMaximizeCanceled(t *testing.T) {
	cfg := baseConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Maximize(cfg, SLO{QLenFG: 1}, Options{Var: VarBGProb, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSLOValidate(t *testing.T) {
	cases := []struct {
		name string
		slo  SLO
		ok   bool
	}{
		{"empty", SLO{}, false},
		{"negative", SLO{QLenFG: -1}, false},
		{"nan", SLO{QLenFG: math.NaN()}, false},
		{"inf", SLO{RespTimeFG: math.Inf(1)}, false},
		{"waitp above one", SLO{WaitPFG: 1.5}, false},
		{"qlen only", SLO{QLenFG: 2}, true},
		{"all three", SLO{QLenFG: 2, WaitPFG: 0.5, RespTimeFG: 30}, true},
	}
	for _, c := range cases {
		err := c.slo.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			var verr *core.ValidationError
			if !errors.As(err, &verr) {
				t.Errorf("%s: want *core.ValidationError, got %v", c.name, err)
			}
		}
	}
}

func TestParseVarRoundTrip(t *testing.T) {
	for _, v := range []Var{VarBGProb, VarBGBuffer, VarIdleRate} {
		got, err := ParseVar(v.String())
		if err != nil || got != v {
			t.Fatalf("ParseVar(%q) = %v, %v", v.String(), got, err)
		}
	}
	if v, err := ParseVar(""); err != nil || v != VarBGProb {
		t.Fatalf("empty var must default to p, got %v, %v", v, err)
	}
	if _, err := ParseVar("bogus"); err == nil {
		t.Fatal("want error for unknown var")
	}
}

func TestCacheKeyNormalizesSearchedVariable(t *testing.T) {
	cfg := baseConfig(t)
	slo := SLO{QLenFG: 2}
	k1, err := CacheKey(cfg, slo, Options{Var: VarBGProb})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.BGProb = 0.9 // overridden by the search, must not split the cache
	k2, err := CacheKey(cfg2, slo, Options{Var: VarBGProb})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("base p must be normalized out of the p-search key")
	}
	k3, err := CacheKey(cfg, SLO{QLenFG: 3}, Options{Var: VarBGProb})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("different SLOs must key differently")
	}
	k4, err := CacheKey(cfg, slo, Options{Var: VarBGBuffer})
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatal("different decision variables must key differently")
	}
	k5, err := CacheKey(cfg, slo, Options{Var: VarBGProb, Tol: DefaultTol})
	if err != nil {
		t.Fatal(err)
	}
	if k5 != k1 {
		t.Fatal("explicit defaults must key identically to implicit ones")
	}
	plain, err := core.CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain == k1 {
		t.Fatal("plan keys must not collide with solve keys")
	}
}

func TestMaximizeVarPreconditions(t *testing.T) {
	cfg := baseConfig(t)
	cfg.IdleRate = 0
	cfg.IdleWait = nil
	cfg.BGBuffer = 0
	cfg.BGProb = 0
	// Buffer search without any idle-wait law cannot solve X > 0 candidates.
	_, err := Maximize(cfg, SLO{QLenFG: 2}, Options{Var: VarBGBuffer})
	var verr *core.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want ValidationError for buffer search without idle law, got %v", err)
	}
}

// TestCheckTolBoundsSteps pins the tolerance rule that bounds every search
// at MaxSteps iterations: a tolerance passes exactly when bisection's count
// over its variable's span stays within MaxSteps, so the same tolerance can
// pass for p and fail for α, whose span is wider, while X ignores it.
func TestCheckTolBoundsSteps(t *testing.T) {
	cases := []struct {
		v    Var
		tol  float64
		pass bool
	}{
		{VarBGProb, DefaultTol, true},
		{VarBGProb, 1e-19, true}, // ⌈log₂ 1e19⌉ = 64
		{VarIdleRate, 1e-19, false},
		{VarIdleRate, 7.4e-19, false}, // 65 steps over ln(1.024e6)
		{VarIdleRate, 7.6e-19, true},  // 64
		{VarModFactor, 1e-20, false},
		{VarBGBuffer, 1e-300, true},
		{VarBGProb, 0, false},
		{VarBGProb, -1, false},
		{VarBGProb, math.Inf(1), false},
		{VarBGProb, math.NaN(), false},
	}
	for _, c := range cases {
		err := CheckTol(c.v, c.tol, "tolerance")
		if (err == nil) != c.pass {
			t.Errorf("CheckTol(%s, %g) = %v, want pass %v", c.v, c.tol, err, c.pass)
		}
		if c.pass && c.tol > 0 && BisectionSteps(c.v, c.tol) > MaxSteps {
			t.Errorf("CheckTol passed %s at %g, which needs %d steps", c.v, c.tol, BisectionSteps(c.v, c.tol))
		}
		var verr *core.ValidationError
		if err != nil && (!errors.As(err, &verr) || verr.Field != "tolerance") {
			t.Errorf("CheckTol(%s, %g) = %v, want a ValidationError on tolerance", c.v, c.tol, err)
		}
	}
	// Maximize and CacheKey apply the rule themselves, naming the facade's
	// option.
	cfg := baseConfig(t)
	opts := Options{Var: VarIdleRate, Tol: 1e-19}
	for name, err := range map[string]error{
		"Maximize": func() error { _, err := Maximize(cfg, SLO{QLenFG: 2}, opts); return err }(),
		"CacheKey": func() error { _, err := CacheKey(cfg, SLO{QLenFG: 2}, opts); return err }(),
	} {
		var verr *core.ValidationError
		if !errors.As(err, &verr) || verr.Field != "Tolerance" {
			t.Errorf("%s with a too-fine tolerance: %v, want a ValidationError on Tolerance", name, err)
		}
	}
}
