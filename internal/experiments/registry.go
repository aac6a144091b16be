package experiments

import "bgperf/internal/obs"

// Generator names one reproducible experiment.
type Generator struct {
	// Name is the CLI-facing identifier ("1", "5", "validation", …).
	Name string
	// Paper describes what it reproduces.
	Paper string
	// Run produces the artifacts.
	Run func() (Result, error)
}

// Options tunes a Suite and the experiment registry.
type Options struct {
	// TraceLength is the synthetic trace length for Figure 1. The default
	// of 3,000,000 exceeds the paper's "few hundred thousand entries"
	// because the fitted MMPPs must be *sampled* here and they modulate
	// slowly (~5·10⁵ arrivals per phase cycle for E-mail); shorter synthetic
	// traces give unstable sample means.
	TraceLength int
	// Seed drives the stochastic experiments (trace sampling, simulation).
	// Each validation case derives its own seed from it.
	Seed int64
	// Workers bounds the fan-out: independent grid points (QBD solves,
	// validation simulations) run on at most Workers goroutines (0: all
	// cores, 1: serial). Results are collected index-addressed, so every
	// artifact is bit-identical across worker counts.
	Workers int
	// MeasureTime is the validation table's simulated measurement window in
	// ms (default 2e8 — long enough for the slow-mixing trace MMPPs to
	// average out).
	MeasureTime float64
	// Observer, when non-nil, receives the stage timings of every solve and
	// the event counters of every validation simulation (must tolerate
	// concurrent calls — grid points solve in parallel).
	Observer obs.Observer
}

func (o Options) withDefaults() Options {
	if o.TraceLength == 0 {
		o.TraceLength = 3000000
	}
	if o.MeasureTime == 0 {
		o.MeasureTime = 2e8
	}
	return o
}

// All returns every experiment in paper order. The generators share one
// Suite, so running them all solves each distinct model once.
func All(opts Options) []Generator {
	s := NewSuite(opts)
	return []Generator{
		{Name: "1", Paper: "Fig. 1 — trace ACF and characteristics table", Run: s.Figure1},
		{Name: "2", Paper: "Fig. 2 — MMPP ACF and parameter table", Run: s.Figure2},
		{Name: "5", Paper: "Fig. 5 — FG queue length vs load", Run: s.Figure5},
		{Name: "6", Paper: "Fig. 6 — delayed FG fraction vs load", Run: s.Figure6},
		{Name: "7", Paper: "Fig. 7 — BG completion rate vs load", Run: s.Figure7},
		{Name: "8", Paper: "Fig. 8 — BG queue length vs load", Run: s.Figure8},
		{Name: "9", Paper: "Fig. 9 — FG queue length vs idle wait", Run: s.Figure9},
		{Name: "10", Paper: "Fig. 10 — BG completion rate vs idle wait", Run: s.Figure10},
		{Name: "11", Paper: "Fig. 11 — FG queue length across arrival processes", Run: s.Figure11},
		{Name: "12", Paper: "Fig. 12 — BG completion rate across arrival processes", Run: s.Figure12},
		{Name: "13", Paper: "Fig. 13 — delayed FG fraction across arrival processes", Run: s.Figure13},
		{Name: "validation", Paper: "V-1 — analytic vs simulation cross-check", Run: s.Validation},
		{Name: "ablation", Paper: "A-1 — idle policy and buffer-size ablations", Run: s.Ablation},
		{Name: "extension", Paper: "E-1 — two background priority classes (the paper's future work)", Run: s.Extension},
		{Name: "baseline", Paper: "B-1 — exact chain vs classical vacation-model decomposition", Run: s.Baseline},
		// Scalability stays serial and outside the Suite by design: it
		// reports per-solve wall-clock timings, which concurrent or cached
		// solves would pollute.
		{Name: "scalability", Paper: "S-1 — solver wall-clock scaling with the state space", Run: Scalability},
	}
}

// Lookup returns the generator with the given name, or false.
func Lookup(name string, opts Options) (Generator, bool) {
	for _, g := range All(opts) {
		if g.Name == name {
			return g, true
		}
	}
	return Generator{}, false
}
