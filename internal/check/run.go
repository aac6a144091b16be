package check

import (
	"context"
	"fmt"
	"math"

	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/sim"
)

// Options parameterizes a conformance run.
type Options struct {
	// N is the number of random configurations to generate and check
	// (default 32).
	N int
	// Seed seeds the configuration generator and, offset per case, the
	// simulations (default 1).
	Seed int64
	// Tol scales the deterministic part of the agreement band: a sim and an
	// analytic value agree when their difference is at most
	// ciMult·halfwidth + Tol·(0.1 + |analytic|) (default 0.02).
	Tol float64
	// Reps is the number of simulation replications per case (default 6).
	Reps int
	// Workers bounds simulation parallelism (0: all cores).
	Workers int
	// Observer optionally receives solver and simulator diagnostics.
	Observer obs.Observer
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Tol == 0 {
		o.Tol = 0.02
	}
	if o.Reps == 0 {
		o.Reps = 6
	}
	return o
}

// Simulation window per case. Warm-up covers transients at the loads the
// generator emits (util ≤ 0.6); the measurement window cycles the slowest
// generated MMPP modulation (rate ≥ 0.05) more than a thousand times.
const (
	warmupTime  = 2000.0
	measureTime = 30000.0
	// planSeedOffset decorrelates the plan-inversion oracle's case stream
	// from the sim-agreement stream while staying deterministic in the seed.
	planSeedOffset = 7_654_321
	// ciMult widens the per-metric Student-t 95% half-width: with four
	// metrics on dozens of cases, 5% misses per comparison would make runs
	// flaky, while 4× the half-width keeps false alarms below ~1e-4 per run
	// and still catches any systematic model disagreement.
	ciMult = 4.0
)

// Agreement records one sim-vs-analytic comparison of a paper metric.
type Agreement struct {
	Case      string  `json:"case"`
	Metric    string  `json:"metric"`
	Analytic  float64 `json:"analytic"`
	Sim       float64 `json:"sim"`
	HalfWidth float64 `json:"halfWidth"`
	Allowed   float64 `json:"allowed"`
	Diff      float64 `json:"diff"`
	OK        bool    `json:"ok"`
}

// Report is the outcome of a conformance run.
type Report struct {
	// Cases is the number of generated configurations checked.
	Cases int `json:"cases"`
	// Seed is the generator seed the run used.
	Seed int64 `json:"seed"`
	// Comparisons counts sim-vs-analytic metric comparisons; Invariants
	// counts structural and oracle checks (violations listed on failure).
	Comparisons int `json:"comparisons"`
	Invariants  int `json:"invariants"`
	// Violations are the failed structural/oracle checks (empty on pass).
	Violations []Violation `json:"violations"`
	// Disagreements are the failed metric comparisons (empty on pass).
	Disagreements []Agreement `json:"disagreements"`
	// Agreements holds every comparison, passed or failed, for reporting.
	Agreements []Agreement `json:"agreements"`
}

// OK reports whether the run passed: no invariant violations and no metric
// disagreements.
func (r *Report) OK() bool {
	return len(r.Violations) == 0 && len(r.Disagreements) == 0
}

// Summary is a one-line human-readable outcome.
func (r *Report) Summary() string {
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	return fmt.Sprintf("%s: %d cases, %d metric comparisons (%d disagree), %d invariant checks (%d violated)",
		status, r.Cases, r.Comparisons, len(r.Disagreements), r.Invariants, len(r.Violations))
}

// paperMetrics are the four headline metrics the paper reports, extracted
// from a metric set.
var paperMetrics = []struct {
	name string
	get  func(core.Metrics) float64
}{
	{"qlenFG", func(m core.Metrics) float64 { return m.QLenFG }},
	{"waitPFG", func(m core.Metrics) float64 { return m.WaitPFG }},
	{"compBG", func(m core.Metrics) float64 { return m.CompBG }},
	{"qlenBG", func(m core.Metrics) float64 { return m.QLenBG }},
	{"deadlineMissBG", func(m core.Metrics) float64 { return m.DeadlineMissBG }},
}

// Run executes the conformance harness: the exact-oracle suites once, then
// for each generated configuration the structural invariants on the analytic
// solution and the CI-calibrated agreement between the replicated simulation
// and the analytic values of the four paper metrics. ctx cancels in-flight
// simulations (nil is treated as background).
func Run(ctx context.Context, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	rep := &Report{Seed: opts.Seed}

	// Every check runs through vs, which collects the violations and counts
	// the checks as they run.
	vs := &violations{}
	vs.oracles()
	vs.scenarioOracles()
	// Plan-inversion oracle: the inverse solver must round-trip against the
	// forward solver on its own case stream (seed offset keeps it independent
	// of the sim comparison stream below).
	if err := vs.planInversion(ctx, opts.N, opts.Seed+planSeedOffset); err != nil {
		return nil, err
	}

	gen := NewGenerator(opts.Seed)
	for i := 0; i < opts.N; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := gen.Next()
		model, err := core.NewModel(c.Cfg)
		if err != nil {
			return nil, fmt.Errorf("check: generated invalid config %s: %w", c.Name, err)
		}
		sol, err := model.SolveObserved(opts.Observer)
		if err != nil {
			return nil, fmt.Errorf("check: solving %s: %w", c.Name, err)
		}
		vs.caseName = c.Name
		vs.solvedPoint(model, sol)

		// Independent simulation: give every case its own seed region far
		// from the others so replication streams never overlap.
		simCfg := sim.FromModel(c.Cfg, opts.Seed+int64(i+1)*1_000_003, warmupTime, measureTime)
		agg, err := sim.RunReplicationsOpts(ctx, simCfg, opts.Reps, opts.Workers, opts.Observer)
		if err != nil {
			return nil, fmt.Errorf("check: simulating %s: %w", c.Name, err)
		}
		for _, pm := range paperMetrics {
			ana := pm.get(sol.Metrics)
			simVal := pm.get(agg.Mean)
			half := replicationHalfWidth(agg, pm.get)
			allowed := ciMult*half + opts.Tol*(0.1+math.Abs(ana))
			diff := math.Abs(simVal - ana)
			a := Agreement{
				Case: c.Name, Metric: pm.name, Analytic: ana, Sim: simVal,
				HalfWidth: half, Allowed: allowed, Diff: diff,
				OK: diff <= allowed && !math.IsNaN(diff),
			}
			rep.Agreements = append(rep.Agreements, a)
			rep.Comparisons++
			if !a.OK {
				rep.Disagreements = append(rep.Disagreements, a)
			}
		}
	}
	rep.Cases = opts.N
	rep.Violations, rep.Invariants = vs.list, vs.checks
	return rep, nil
}

// replicationHalfWidth is the ±half-width of a 95% Student-t confidence
// interval on the across-replication mean of the given metric, or 0 below two
// replications. sim exports half-widths only for the headline queue lengths;
// the conformance harness needs them for WaitPFG and CompBG too, so it
// derives them from the compact per-replication metric rows (populated at any
// replication count, unlike the full Replications slice).
func replicationHalfWidth(agg *sim.ReplicationResult, get func(core.Metrics) float64) float64 {
	if len(agg.RepMetrics) < 2 {
		return 0
	}
	return sim.HalfWidth95(agg.RepMetrics, func(m *core.Metrics) float64 { return get(*m) })
}
