package check

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"bgperf/internal/core"
)

// TestOracles pins every exact-oracle suite green: the M/M/1 collapse against
// refqueue, the p=0 pruning invariance, and the monotonicity sweeps.
func TestOracles(t *testing.T) {
	for _, v := range Oracles() {
		t.Errorf("oracle violation: %s", v)
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
	vs, inv, err := PlanInversion(context.Background(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("plan-inversion violation: %s", v)
	}
	if inv < n*5 {
		t.Errorf("plan-inversion performed %d invariant checks, want >= %d", inv, n*5)
	}
}

// TestPlanInversionCancellation pins that a canceled context surfaces as an
// error, not a vacuously green (empty) violation list.
func TestPlanInversionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := PlanInversion(ctx, 4, 1); err == nil {
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
	if vs := SolvedPoint(c.Name, model, sol); len(vs) != 0 {
		t.Fatalf("clean solution flagged: %v", vs)
	}
	sol.Metrics.QLenFG += 0.5
	vs := SolvedPoint(c.Name, model, sol)
	if len(vs) == 0 {
		t.Fatal("corrupted QLenFG not detected")
	}
	var found bool
	for _, v := range vs {
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

// TestSimConfigCopiesEveryModelField sets every core.Config field to a
// distinct non-zero value and requires SimConfig to carry each one into the
// same-named sim.Config field, so a field added to the model cannot be
// silently dropped on the way to the simulator.
func TestSimConfigCopiesEveryModelField(t *testing.T) {
	var cfg core.Config
	cv := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Field(i)
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Int:
			f.SetInt(int64(i) + 1)
		default:
			t.Fatalf("core.Config.%s: no distinct value for kind %s", cv.Type().Field(i).Name, f.Kind())
		}
	}
	sc := SimConfig(cfg, 7, 11, 13)
	sv := reflect.ValueOf(sc)
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		got := sv.FieldByName(name)
		if !got.IsValid() {
			t.Errorf("sim.Config has no field %s", name)
			continue
		}
		if got.Interface() != cv.Field(i).Interface() {
			t.Errorf("sim.Config.%s = %v, want %v", name, got.Interface(), cv.Field(i).Interface())
		}
	}
	if sc.Seed != 7 || sc.WarmupTime != 11 || sc.MeasureTime != 13 {
		t.Errorf("run fields = (%d, %g, %g), want (7, 11, 13)", sc.Seed, sc.WarmupTime, sc.MeasureTime)
	}
}
