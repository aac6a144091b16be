package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"bgperf/internal/obs"
)

// renderAll runs a generator and renders every artifact of its result to text.
func renderAll(t *testing.T, run func() (Result, error)) string {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// suiteReport renders figures 5–8 of one suite into a single report string.
func suiteReport(t *testing.T, s *Suite) string {
	t.Helper()
	var b strings.Builder
	for _, run := range []func() (Result, error){s.Figure5, s.Figure6, s.Figure7, s.Figure8} {
		b.WriteString(renderAll(t, run))
	}
	return b.String()
}

// TestSuiteParallelDeterminism pins the tentpole guarantee: a parallel run
// of the sweep engine produces byte-identical report output to a serial run.
func TestSuiteParallelDeterminism(t *testing.T) {
	serial := suiteReport(t, NewSuite(Options{Workers: 1}))
	parallel := suiteReport(t, NewSuite(Options{Workers: 8}))
	if serial != parallel {
		t.Fatalf("parallel suite output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "fig5a") || !strings.Contains(serial, "fig8b") {
		t.Fatalf("report looks incomplete:\n%s", serial)
	}
}

// TestGridGeneratorsParallelDeterminism covers the Suite's other analytic
// artifacts: idle sweeps, dependence figures, and the ablation, baseline and
// extension tables must be byte-identical across worker counts.
func TestGridGeneratorsParallelDeterminism(t *testing.T) {
	for _, g := range []struct {
		name string
		run  func(*Suite) (Result, error)
	}{
		{"figure9", (*Suite).Figure9},
		{"figure10", (*Suite).Figure10},
		{"figure11", (*Suite).Figure11},
		{"figure12", (*Suite).Figure12},
		{"figure13", (*Suite).Figure13},
		{"ablation", (*Suite).Ablation},
		{"baseline", (*Suite).Baseline},
		{"extension", (*Suite).Extension},
	} {
		t.Run(g.name, func(t *testing.T) {
			serial := renderAll(t, func() (Result, error) { return g.run(NewSuite(Options{Workers: 1})) })
			parallel := renderAll(t, func() (Result, error) { return g.run(NewSuite(Options{Workers: 8})) })
			if serial != parallel {
				t.Fatalf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					g.name, serial, parallel)
			}
		})
	}
}

// TestValidationParallelDeterminism checks the simulation cross-check table
// is identical across worker counts (per-case derived seeds).
func TestValidationParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	opts := Options{MeasureTime: 2e6, Seed: 3, Workers: 1}
	serial := renderAll(t, NewSuite(opts).Validation)
	opts.Workers = 8
	parallel := renderAll(t, NewSuite(opts).Validation)
	if serial != parallel {
		t.Fatalf("validation table differs across worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestSuiteConcurrentUse hammers one shared Suite from many goroutines —
// first use races on the table's per-model sync.Once entries — and checks
// every goroutine sees the same artifacts and that the goroutines shared
// the 95 solves of Fig. 5–8. Run under -race this is the concurrency
// regression test for the old "not safe for concurrent use" Suite.
func TestSuiteConcurrentUse(t *testing.T) {
	d := obs.NewDiagnostics()
	s := NewSuite(Options{Workers: 4, Observer: d})
	const goroutines = 8
	reports := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			var b strings.Builder
			for _, run := range []func() (Result, error){s.Figure5, s.Figure6, s.Figure7, s.Figure8} {
				res, err := run()
				if err != nil {
					errs[i] = err
					return
				}
				if err := res.WriteText(&b); err != nil {
					errs[i] = err
					return
				}
			}
			reports[i] = b.String()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("goroutine %d saw different artifacts than goroutine 0", i)
		}
	}
	if got := d.Report().Solves; got != 95 {
		t.Errorf("%d goroutines made %d solves, want the 95 distinct models once each", goroutines, got)
	}
	// And the shared suite still matches an independent serial suite.
	if want := suiteReport(t, NewSuite(Options{Workers: 1})); reports[0] != want {
		t.Fatal("concurrent suite output differs from a serial suite")
	}
}
