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

// Options tunes the experiment registry.
type Options struct {
	// TraceLength is the synthetic trace length for Figure 1. The default
	// of 3,000,000 exceeds the paper's "few hundred thousand entries"
	// because the fitted MMPPs must be *sampled* here and they modulate
	// slowly (~5·10⁵ arrivals per phase cycle for E-mail); shorter synthetic
	// traces give unstable sample means.
	TraceLength int
	// Seed drives the stochastic experiments (trace sampling, simulation).
	Seed int64
	// Workers bounds the fan-out of the sweep engine: independent grid
	// points (QBD solves, validation simulations) run on at most Workers
	// goroutines (0: all cores, 1: serial). Results are collected
	// index-addressed, so every artifact is bit-identical across worker
	// counts.
	Workers int
	// Validation sizes the simulation cross-check.
	Validation ValidationOptions
	// Observer, when non-nil, collects solver and simulator diagnostics from
	// the shared load sweeps and the validation cross-check (must tolerate
	// concurrent calls — grid points solve in parallel).
	Observer obs.Observer
}

func (o Options) withDefaults() Options {
	if o.TraceLength == 0 {
		o.TraceLength = 3000000
	}
	o.Validation.Seed = o.Seed
	o.Validation.Workers = o.Workers
	o.Validation.Observer = o.Observer
	return o
}

// All returns every experiment in paper order. Generators sharing load
// sweeps reuse one Suite, so running them all solves each grid only once.
func All(opts Options) []Generator {
	opts = opts.withDefaults()
	suite := NewSuite(opts.Workers, opts.Observer)
	w := opts.Workers
	return []Generator{
		{Name: "1", Paper: "Fig. 1 — trace ACF and characteristics table",
			Run: func() (Result, error) { return Figure1(opts.TraceLength, opts.Seed) }},
		{Name: "2", Paper: "Fig. 2 — MMPP ACF and parameter table", Run: Figure2},
		{Name: "5", Paper: "Fig. 5 — FG queue length vs load", Run: suite.Figure5},
		{Name: "6", Paper: "Fig. 6 — delayed FG fraction vs load", Run: suite.Figure6},
		{Name: "7", Paper: "Fig. 7 — BG completion rate vs load", Run: suite.Figure7},
		{Name: "8", Paper: "Fig. 8 — BG queue length vs load", Run: suite.Figure8},
		{Name: "9", Paper: "Fig. 9 — FG queue length vs idle wait",
			Run: func() (Result, error) { return Figure9(w) }},
		{Name: "10", Paper: "Fig. 10 — BG completion rate vs idle wait",
			Run: func() (Result, error) { return Figure10(w) }},
		{Name: "11", Paper: "Fig. 11 — FG queue length across arrival processes",
			Run: func() (Result, error) { return Figure11(w) }},
		{Name: "12", Paper: "Fig. 12 — BG completion rate across arrival processes",
			Run: func() (Result, error) { return Figure12(w) }},
		{Name: "13", Paper: "Fig. 13 — delayed FG fraction across arrival processes",
			Run: func() (Result, error) { return Figure13(w) }},
		{Name: "validation", Paper: "V-1 — analytic vs simulation cross-check",
			Run: func() (Result, error) { return Validation(opts.Validation) }},
		{Name: "ablation", Paper: "A-1 — idle policy and buffer-size ablations", Run: Ablation},
		{Name: "extension", Paper: "E-1 — two background priority classes (the paper's future work)",
			Run: func() (Result, error) { return Extension(w) }},
		{Name: "baseline", Paper: "B-1 — exact chain vs classical vacation-model decomposition",
			Run: func() (Result, error) { return Baseline(w) }},
		// Scalability stays serial by design: it reports per-solve wall-clock
		// timings, which concurrent solves would pollute.
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
