package serve

import (
	"math"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/phtype"
	"bgperf/internal/plan"
	"bgperf/internal/workload"
)

// SolveRequest is the JSON body of POST /v1/solve: one parameter point of
// the paper's model, in the same vocabulary as the bgperf CLI flags. Fields
// left at their zero value take the CLI defaults noted below, so a request
// and the equivalent `bgperf solve` invocation describe — and therefore
// cache-key to — the same model.
type SolveRequest struct {
	// Workload names the arrival process: email, softdev, useraccounts,
	// email-lowacf, email-ipp, or poisson (the CLI catalog).
	Workload string `json:"workload"`
	// Utilization rescales the workload to this foreground load; 0 keeps
	// the native trace load. Values >= 1 are accepted and reach the solver,
	// which reports the overloaded model as unstable (HTTP 422).
	Utilization float64 `json:"utilization,omitempty"`
	// BGProb is the probability a foreground completion spawns a background
	// job (the paper's p). Unlike the CLI flag it has no implicit default:
	// absent means 0.
	BGProb float64 `json:"bgProb"`
	// BGBuffer is the background buffer capacity X; nil means the paper
	// default of 5 (0 is a valid explicit value: drop all BG work).
	BGBuffer *int `json:"bgBuffer,omitempty"`
	// IdleMult is the mean idle wait in multiples of the 6 ms service time;
	// 0 means 1.
	IdleMult float64 `json:"idleMult,omitempty"`
	// Policy selects idle-wait re-arming: per-job (default) or per-period.
	Policy string `json:"policy,omitempty"`
	// ServiceSCV sets the service-time SCV at the 6 ms mean; 0 means 1
	// (exponential), <1 fits an Erlang, >1 a hyperexponential.
	ServiceSCV float64 `json:"serviceSCV,omitempty"`
	// IdleSCV sets the idle-wait SCV at the chosen mean; 0 means 1.
	IdleSCV float64 `json:"idleSCV,omitempty"`
	// ModFactor is the capacity-modulation factor φ ∈ (0, 1]: while any
	// background work is in the system the server runs at rate φ·µ. 0 means
	// 1 (no modulation).
	ModFactor float64 `json:"modFactor,omitempty"`
	// BGAdmit selects the background admission policy: all (default),
	// util-threshold, or deadline.
	BGAdmit string `json:"bgAdmit,omitempty"`
	// FGThreshold is the util-threshold policy's K: a spawned background job
	// is admitted only when at most K foreground jobs are waiting. Only
	// valid with bgAdmit "util-threshold".
	FGThreshold int `json:"fgThreshold,omitempty"`
	// DeadlineRate is the deadline policy's renege rate δ: each waiting
	// background job abandons at rate δ. Required with (and only valid
	// with) bgAdmit "deadline".
	DeadlineRate float64 `json:"deadlineRate,omitempty"`
}

// SweepRequest is the JSON body of POST /v1/sweep: a batch of independent
// parameter points fanned out over the daemon's worker pool. Each point
// passes through the same cache and coalescing path as a single solve.
type SweepRequest struct {
	// Points are the parameter points to solve, answered index-aligned.
	Points []SolveRequest `json:"points"`
}

// OptimizeRequest is the JSON body of POST /v1/optimize: one capacity-plan
// point. The embedded SolveRequest fields describe the base model exactly
// as /v1/solve would (same defaults, same vocabulary); the plan fields
// select the decision variable, the SLO to preserve, and the search knobs.
// The base model's value of the searched variable is irrelevant — the
// search overrides it — and is normalized out of the plan cache key.
type OptimizeRequest struct {
	SolveRequest
	// SLO bounds the foreground metrics the plan must preserve; at least
	// one of qlenFG, waitPFG, respTimeFG must be set.
	SLO plan.SLO `json:"slo"`
	// Var names the decision variable: p (default), x, alpha, or mod.
	Var string `json:"var,omitempty"`
	// Tolerance is the convergence tolerance of the continuous searches;
	// 0 means the planner default (1e-4).
	Tolerance float64 `json:"tolerance,omitempty"`
	// MaxIter bounds the bisection iterations; 0 means the planner
	// default (64).
	MaxIter int `json:"maxIter,omitempty"`
}

// PlanInputs resolves the request into the planner's inputs: the validated
// base config (through the same ConfigWithArrival path as a solve), the
// SLO, and the search options with the daemon-independent knobs filled in.
// The caller stamps the runtime knobs (workers, observer, context) before
// searching. Errors are *core.ValidationError naming the request field.
func (r OptimizeRequest) PlanInputs() (core.Config, plan.SLO, plan.Options, error) {
	cfg, err := r.SolveRequest.Config()
	if err != nil {
		return core.Config{}, plan.SLO{}, plan.Options{}, err
	}
	opts, err := r.planOptions()
	if err != nil {
		return core.Config{}, plan.SLO{}, plan.Options{}, err
	}
	return cfg, r.SLO, opts, nil
}

// planOptions validates and resolves the search knobs shared by
// /v1/optimize and /v1/plan-from-trace.
func (r OptimizeRequest) planOptions() (plan.Options, error) {
	v, err := plan.ParseVar(r.Var)
	if err != nil {
		return plan.Options{}, err
	}
	if r.Tolerance < 0 || math.IsNaN(r.Tolerance) || math.IsInf(r.Tolerance, 0) {
		return plan.Options{}, core.NewValidationError(core.ErrConfig, "tolerance",
			"tolerance %g must be positive and finite", r.Tolerance)
	}
	if r.MaxIter < 0 {
		return plan.Options{}, core.NewValidationError(core.ErrConfig, "maxIter",
			"maxIter %d must be positive", r.MaxIter)
	}
	return plan.Options{Var: v, Tol: r.Tolerance, MaxIter: r.MaxIter}, nil
}

// Config resolves the request into a validated core.Config, applying the
// CLI-compatible defaults. Errors are *core.ValidationError with the
// offending request field, so handlers map them to 400 responses verbatim.
func (r SolveRequest) Config() (core.Config, error) {
	m, err := workload.ByName(r.Workload)
	if err != nil {
		return core.Config{}, core.NewValidationError(core.ErrConfig, "workload", "%v", err)
	}
	return r.ConfigWithArrival(m)
}

// ConfigWithArrival resolves the request against an explicit arrival
// process instead of a catalog workload — the plan-from-trace path, where
// the arrival MAP is fitted from an uploaded trace. The Workload field is
// ignored; Utilization (if set) rescales the given process exactly as it
// would a catalog workload. This is the single defaulting point shared by
// /v1/solve, /v1/optimize, /v1/plan-from-trace, and the bgperf CLI, so the
// same parameters always describe — and cache-key to — the same model.
func (r SolveRequest) ConfigWithArrival(m *arrival.MAP) (core.Config, error) {
	var err error
	if r.Utilization < 0 {
		return core.Config{}, core.NewValidationError(core.ErrConfig, "utilization",
			"utilization %g must be non-negative", r.Utilization)
	}
	switch {
	case r.Utilization > 0 && r.Utilization < 1:
		if m, err = workload.AtUtilization(m, r.Utilization); err != nil {
			return core.Config{}, err
		}
	case r.Utilization >= 1:
		// Deliberately overloaded points are structurally valid; the QBD
		// solver reports them as unstable, which the daemon maps to 422.
		if m, err = m.WithRate(r.Utilization * workload.ServiceRatePerMs); err != nil {
			return core.Config{}, err
		}
	}
	buffer := 5
	if r.BGBuffer != nil {
		buffer = *r.BGBuffer
	}
	idleMult := r.IdleMult
	if idleMult == 0 {
		idleMult = 1
	}
	if idleMult < 0 {
		return core.Config{}, core.NewValidationError(core.ErrConfig, "idleMult",
			"idle-wait multiplier %g must be positive", idleMult)
	}
	policyName := r.Policy
	if policyName == "" {
		policyName = "per-job"
	}
	policy, err := core.ParseIdleWaitPolicy(policyName)
	if err != nil {
		return core.Config{}, err
	}
	serviceSCV := r.ServiceSCV
	if serviceSCV == 0 {
		serviceSCV = 1
	}
	idleSCV := r.IdleSCV
	if idleSCV == 0 {
		idleSCV = 1
	}
	admit, err := core.ParseBGAdmission(r.BGAdmit)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Arrival:      m,
		BGProb:       r.BGProb,
		BGBuffer:     buffer,
		IdlePolicy:   policy,
		ModFactor:    r.ModFactor,
		BGAdmit:      admit,
		FGThreshold:  r.FGThreshold,
		DeadlineRate: r.DeadlineRate,
	}
	idleMean := idleMult * workload.MeanServiceTimeMs
	if idleSCV == 1 {
		cfg.IdleRate = 1 / idleMean
	} else {
		idle, err := phtype.FitTwoMoment(idleMean, idleSCV)
		if err != nil {
			return core.Config{}, err
		}
		cfg.IdleWait = idle
	}
	if serviceSCV == 1 {
		cfg.ServiceRate = workload.ServiceRatePerMs
	} else {
		svc, err := phtype.FitTwoMoment(workload.MeanServiceTimeMs, serviceSCV)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Service = svc
	}
	return cfg, nil
}
