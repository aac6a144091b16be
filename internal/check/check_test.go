package check

import (
	"context"
	"strings"
	"testing"

	"bgperf/internal/core"
)

// TestOracles pins every exact-oracle suite green: the M/M/1 collapse against
// refqueue, the p=0 pruning invariance, and the monotonicity sweeps.
func TestOracles(t *testing.T) {
	vs := &violations{}
	vs.oracles()
	vs.scenarioOracles()
	for _, v := range vs.list {
		t.Errorf("oracle violation: %s", v)
	}
}

// TestRunCountsEveryCheck pins the number of checks each suite runs, as
// counted where they run: 25 per solved point, 90 exact-oracle and 45
// scenario-oracle checks, and 7 per plan-inversion case, so `bgperf check
// -n 64 -seed 1` reports 64·25 + 90 + 45 + 16·7 = 1847 invariant checks.
func TestRunCountsEveryCheck(t *testing.T) {
	c := NewGenerator(1).Next()
	model, err := core.NewModel(c.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []struct {
		name string
		run  func(*violations)
		want int
	}{
		{"solvedPoint", func(vs *violations) { vs.solvedPoint(model, sol) }, 25},
		{"oracles", (*violations).oracles, 90},
		{"scenarioOracles", (*violations).scenarioOracles, 45},
		{"planInversion", func(vs *violations) {
			if err := vs.planInversion(context.Background(), 2, 1); err != nil {
				t.Fatal(err)
			}
		}, 2 * 7},
	} {
		vs := &violations{}
		suite.run(vs)
		if vs.checks != suite.want {
			t.Errorf("%s ran %d checks, want %d", suite.name, vs.checks, suite.want)
		}
	}
	if testing.Short() {
		return
	}
	rep, err := Run(context.Background(), Options{N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invariants != 1847 {
		t.Errorf("Run counted %d invariant checks, want 1847", rep.Invariants)
	}
}

// TestRunConformance is the in-tree face of `bgperf check`: a moderate run
// must pass with zero violations and zero disagreements.
func TestRunConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance run simulates dozens of configurations")
	}
	rep, err := Run(context.Background(), Options{N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, d := range rep.Disagreements {
		t.Errorf("disagreement: %s %s analytic %.6g vs sim %.6g (allowed %.3g, diff %.3g)",
			d.Case, d.Metric, d.Analytic, d.Sim, d.Allowed, d.Diff)
	}
	if rep.Comparisons != 16*len(paperMetrics) {
		t.Errorf("expected %d comparisons, got %d", 16*len(paperMetrics), rep.Comparisons)
	}
	if !rep.OK() || !strings.HasPrefix(rep.Summary(), "PASS") {
		t.Errorf("report not OK: %s", rep.Summary())
	}
}

// TestPlanInversion runs the plan-inversion oracle on its own: the inverse
// solver must round-trip against the forward solver with zero violations,
// cycling all three decision variables.
func TestPlanInversion(t *testing.T) {
	n := 6
	if !testing.Short() {
		n = planCases
	}
	vs := &violations{}
	if err := vs.planInversion(context.Background(), n, 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs.list {
		t.Errorf("plan-inversion violation: %s", v)
	}
	if vs.checks != n*7 {
		t.Errorf("plan-inversion performed %d invariant checks, want %d", vs.checks, n*7)
	}
}

// TestPlanInversionCancellation pins that a canceled context surfaces as an
// error, not a vacuously green (empty) violation list.
func TestPlanInversionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (&violations{}).planInversion(ctx, 4, 1); err == nil {
		t.Fatal("cancelled oracle returned no error")
	}
}

// TestGeneratorDeterministic pins that the case stream is a pure function of
// the seed — conformance failures must be reproducible from (seed, index).
func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	other := NewGenerator(8)
	var differs bool
	for i := 0; i < 20; i++ {
		ca, cb, co := a.Next(), b.Next(), other.Next()
		if ca.Name != cb.Name {
			t.Fatalf("case %d differs across equal seeds: %q vs %q", i, ca.Name, cb.Name)
		}
		if ca.Name != co.Name {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generated identical case streams")
	}
}

// TestGeneratorValid draws a few hundred cases and checks each is accepted
// by the model constructor with the documented parameter bounds.
func TestGeneratorValid(t *testing.T) {
	g := NewGenerator(3)
	for i := 0; i < 300; i++ {
		c := g.Next()
		model, err := core.NewModel(c.Cfg)
		if err != nil {
			t.Fatalf("case %s invalid: %v", c.Name, err)
		}
		if rho := model.FGUtilization(); rho < 0.1-1e-9 || rho > 0.6+1e-9 {
			t.Errorf("case %s: utilization %g outside [0.1, 0.6]", c.Name, rho)
		}
		if c.Cfg.BGBuffer > 6 {
			t.Errorf("case %s: buffer %d above generator bound", c.Name, c.Cfg.BGBuffer)
		}
	}
}

// TestSolvedPointDetectsViolations corrupts a correct solution and checks the
// invariant checker actually fires — guarding against a vacuously green
// harness.
func TestSolvedPointDetectsViolations(t *testing.T) {
	c := NewGenerator(1).Next()
	model, err := core.NewModel(c.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	clean := &violations{caseName: c.Name}
	clean.solvedPoint(model, sol)
	if len(clean.list) != 0 {
		t.Fatalf("clean solution flagged: %v", clean.list)
	}
	sol.Metrics.QLenFG += 0.5
	vs := &violations{caseName: c.Name}
	vs.solvedPoint(model, sol)
	if len(vs.list) == 0 {
		t.Fatal("corrupted QLenFG not detected")
	}
	var found bool
	for _, v := range vs.list {
		if v.Check == "littles-law-fg" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected littles-law-fg violation, got %v", vs)
	}
}

// TestRunCancellation checks ctx cancellation surfaces as an error instead
// of a partial report.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Options{N: 4, Seed: 1}); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}
