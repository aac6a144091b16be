package experiments

import (
	"testing"

	"bgperf/internal/obs"
)

// registrySolves is the number of distinct models behind every memoized
// artifact of the registry (all but Scalability, which times uncached
// solves). Solved once per artifact, with Fig. 5–8 counted as their one
// 95-model load sweep, they would take 474 solves: Fig. 10 reads Fig. 9's
// 48 models, Fig. 12 and 13 read Fig. 11's 80, 20 of Fig. 11's are Fig. 5's,
// the idle-policy ablation reads four of Fig. 9's, and validation and
// baseline read five of Fig. 5's and 11's.
const registrySolves = 237

// TestSuiteSolvesEachModelOnce pins the Suite's table: every solve reports
// to the observer, and a model shared between artifacts is solved once per
// Suite.
func TestSuiteSolvesEachModelOnce(t *testing.T) {
	run := func(t *testing.T, gens ...func() (Result, error)) {
		t.Helper()
		for _, g := range gens {
			if _, err := g(); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := Options{TraceLength: 10000, MeasureTime: 2e6}

	t.Run("idle", func(t *testing.T) {
		d := obs.NewDiagnostics()
		s := NewSuite(Options{Observer: d})
		run(t, s.Figure9, s.Figure10)
		if got := d.Report().Solves; got != 48 {
			t.Errorf("Fig. 9 then 10 made %d solves, want 48", got)
		}
	})
	t.Run("load", func(t *testing.T) {
		d := obs.NewDiagnostics()
		s := NewSuite(Options{Observer: d})
		run(t, s.Figure5, s.Figure6, s.Figure7, s.Figure8)
		if got := d.Report().Solves; got != 95 {
			t.Errorf("Fig. 5–8 made %d solves, want 95", got)
		}
	})
	t.Run("suite", func(t *testing.T) {
		d := obs.NewDiagnostics()
		opts := small
		opts.Observer = d
		s := NewSuite(opts)
		run(t, s.Figure1, s.Figure2, s.Figure5, s.Figure6, s.Figure7, s.Figure8,
			s.Figure9, s.Figure10, s.Figure11, s.Figure12, s.Figure13,
			s.Validation, s.Ablation, s.Extension, s.Baseline)
		if got, keys := d.Report().Solves, len(s.solved); got != int64(keys) || keys != registrySolves {
			t.Errorf("%d solves of %d distinct models, want %d of each", got, keys, registrySolves)
		}
	})
	t.Run("registry", func(t *testing.T) {
		d := obs.NewDiagnostics()
		opts := small
		opts.Observer = d
		var gens []func() (Result, error)
		for _, g := range All(opts) {
			gens = append(gens, g.Run)
		}
		run(t, gens...)
		if got := d.Report().Solves; got != registrySolves {
			t.Errorf("a registry run made %d solves, want %d", got, registrySolves)
		}
	})
}
