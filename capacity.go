package bgperf

import (
	"io"

	"bgperf/internal/plan"
	"bgperf/internal/trace"
)

// Capacity-planning types, re-exported from the inverse solver.
type (
	// SLO is a foreground service-level objective: upper bounds on any
	// subset of the FG metrics (mean queue length, wait probability, mean
	// response time). Zero fields are unconstrained; at least one bound
	// must be set.
	SLO = plan.SLO
	// PlanVar selects the decision variable of a capacity plan.
	PlanVar = plan.Var
	// PlanResult is a solved capacity plan: the frontier value of the
	// decision variable, the metrics there, and a sensitivity
	// neighborhood.
	PlanResult = plan.Result
	// PlanNeighbor is one sensitivity point of a plan's neighborhood.
	PlanNeighbor = plan.Neighbor
)

// Decision variables for WithPlanVar.
const (
	// PlanBGProb searches the background-job spawn probability p — "how
	// much background work can the system accept?" (the default).
	PlanBGProb = plan.VarBGProb
	// PlanBGBuffer searches the background buffer size X.
	PlanBGBuffer = plan.VarBGBuffer
	// PlanIdleRate searches the idle-wait rate α — "how aggressively may
	// idle waits expire before foreground latency suffers?"
	PlanIdleRate = plan.VarIdleRate
	// PlanModFactor searches the capacity-modulation factor φ downward —
	// "how much may background work slow the server before foreground
	// latency suffers?" The frontier is the MINIMUM feasible φ.
	PlanModFactor = plan.VarModFactor
)

// ParsePlanVar maps "p" / "x" / "alpha" / "mod" (and their aliases) back to
// the decision-variable constants (the inverse of PlanVar.String).
func ParsePlanVar(s string) (PlanVar, error) { return plan.ParseVar(s) }

// Plan inverts the analytic model: it finds the frontier value of the
// decision variable selected by WithPlanVar (default PlanBGProb) for which
// cfg still meets slo, by a bracketing search over the monotone foreground
// metrics (ITP steps for p, α, and φ, bisection for X) — the maximum
// feasible value for PlanBGProb, PlanBGBuffer, and PlanIdleRate, the
// minimum feasible φ for PlanModFactor (deeper modulation hurts FG).
// The returned frontier is always an actually-solved feasible point, with
// the metrics there and a small sensitivity neighborhood. When even the
// most conservative setting of the variable violates slo — or the
// foreground load alone saturates the server — Plan returns ErrInfeasible
// rather than clamping. WithTolerance controls convergence and bounds the
// search's iterations; WithWorkers, WithObserver, and WithContext apply to
// the underlying solves.
func Plan(cfg Config, slo SLO, opts ...Option) (*PlanResult, error) {
	o := apply(opts)
	if o.err != nil {
		return nil, o.err
	}
	if err := ctxErr(o.ctx); err != nil {
		return nil, err
	}
	return plan.Maximize(cfg, slo, o.planOptions())
}

// PlanCacheKey returns a canonical, collision-resistant identity for a
// capacity plan: the hex SHA-256 of the validated base Config (with the
// searched variable normalized out), the SLO bounds, and the search
// parameters. Identical keys imply identical Plan results, so the key is
// safe for memoizing plans — it is the cache key used by the bgperfd
// /v1/optimize cache. Invalid inputs return the same error Plan would.
func PlanCacheKey(cfg Config, slo SLO, opts ...Option) (string, error) {
	o := apply(opts)
	if o.err != nil {
		return "", o.err
	}
	return plan.CacheKey(cfg, slo, o.planOptions())
}

// PlanFromTrace runs the paper's complete workflow — ingest, fit, project —
// in one call: it fits a 2-state MMPP to the measured trace (as
// FitWorkloadFromTrace), installs the fit as cfg.Arrival, and solves the
// capacity plan against slo. The remaining cfg fields (service law,
// background parameters, idle law) describe the system under study as in
// Plan.
func PlanFromTrace(tr *Trace, cfg Config, slo SLO, opts ...Option) (*PlanResult, error) {
	m, err := FitWorkloadFromTrace(tr)
	if err != nil {
		return nil, err
	}
	cfg.Arrival = m
	return Plan(cfg, slo, opts...)
}

// ReadTraceNDJSON parses a newline-delimited JSON trace: one
// {"interarrival": …, "service": …} object per request ("service"
// optional, but all lines must agree on its presence). NDJSON is the
// upload format of the bgperfd /v1/plan-from-trace endpoint and of
// `bgperf plan -trace`.
func ReadTraceNDJSON(r io.Reader) (*Trace, error) { return trace.ReadNDJSON(r) }
