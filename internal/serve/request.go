package serve

import (
	"fmt"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/phtype"
	"bgperf/internal/plan"
	"bgperf/internal/trace"
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
	// BG2Prob is the spawn probability of a second, lower-priority
	// background class (the paper's Sec. 6 multiple priority levels); 0
	// means no second class. bgProb + bg2Prob must not exceed 1, and the
	// second class needs bgAdmit "all".
	BG2Prob float64 `json:"bg2Prob,omitempty"`
	// BG2Buffer is the second class's buffer capacity; nil means 5. It is
	// ignored when bg2Prob is 0.
	BG2Buffer *int `json:"bg2Buffer,omitempty"`
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
	// 0 means the planner default (1e-4). A tolerance so fine that
	// bisection would need more than plan.MaxSteps steps is rejected.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// PlanInputs resolves the request into the planner's inputs: the validated
// base config (through the same ConfigWithArrival path as a solve), the
// SLO, and the search options with the daemon-independent knobs filled in.
// The caller stamps the runtime knobs (workers, observer, context) before
// searching. Errors are *core.ValidationError naming the request field.
func (r OptimizeRequest) PlanInputs() (core.Config, plan.SLO, plan.Options, error) {
	m, err := Workload(r.Workload)
	if err != nil {
		return core.Config{}, plan.SLO{}, plan.Options{}, err
	}
	return r.planInputs(m)
}

// TracePlanInputs is PlanInputs with the arrival process fitted to tr, an
// MMPP(2) that replaces the catalog workload (the paper's Sec. 3.1
// ingest-and-fit workflow), and the summary of that fit. It is the one
// plan-from-trace path of /v1/plan-from-trace and `bgperf plan -trace`.
func (r OptimizeRequest) TracePlanInputs(tr *trace.Trace) (core.Config, plan.SLO, plan.Options, *FitSummary, error) {
	m, err := workload.FromTrace(tr)
	if err != nil {
		return core.Config{}, plan.SLO{}, plan.Options{}, nil, err
	}
	cfg, slo, opts, err := r.planInputs(m)
	if err != nil {
		return core.Config{}, plan.SLO{}, plan.Options{}, nil, err
	}
	fit := &FitSummary{Samples: len(tr.Interarrivals), Rate: m.Rate(), SCV: m.SCV(), ACF1: m.ACF(1)}
	return cfg, slo, opts, fit, nil
}

// planInputs resolves the request against the arrival process m and
// validates the search knobs.
func (r OptimizeRequest) planInputs(m *arrival.MAP) (core.Config, plan.SLO, plan.Options, error) {
	cfg, err := r.ConfigWithArrival(m)
	if err != nil {
		return core.Config{}, plan.SLO{}, plan.Options{}, err
	}
	v, err := plan.ParseVar(r.Var)
	if err != nil {
		return core.Config{}, plan.SLO{}, plan.Options{}, err
	}
	if r.Tolerance != 0 {
		if err := plan.CheckTol(v, r.Tolerance, "tolerance"); err != nil {
			return core.Config{}, plan.SLO{}, plan.Options{}, err
		}
	}
	return cfg, r.SLO, plan.Options{Var: v, Tol: r.Tolerance}, nil
}

// traceQueryFields maps each /v1/plan-from-trace query parameter to the
// index path of its OptimizeRequest field. The names are the request's JSON
// names, with nested structs (the embedded SolveRequest and the SLO)
// flattened, and without "workload", since the trace replaces it.
var traceQueryFields = func() map[string][]int {
	fields := map[string][]int{}
	var walk func(t reflect.Type, at []int)
	walk = func(t reflect.Type, at []int) {
		for i := range t.NumField() {
			f := t.Field(i)
			idx := append(slices.Clip(at), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx)
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			fields[name] = idx
		}
	}
	walk(reflect.TypeFor[OptimizeRequest](), nil)
	delete(fields, "workload")
	return fields
}()

// planTraceQuery maps the /v1/plan-from-trace query string onto an
// OptimizeRequest (the body is reserved for the trace itself). Unknown
// parameters are rejected, mirroring DisallowUnknownFields on the JSON
// endpoints; an empty value leaves its field at the zero value. Parameters
// are read in name order, so a query with several bad ones always reports
// the same one.
func planTraceQuery(q url.Values) (OptimizeRequest, error) {
	var req OptimizeRequest
	rv := reflect.ValueOf(&req).Elem()
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		idx, ok := traceQueryFields[name]
		if !ok {
			return req, core.NewValidationError(core.ErrConfig, name,
				"unknown query parameter %q", name)
		}
		if v := q.Get(name); v != "" {
			if err := setQueryValue(rv.FieldByIndex(idx), name, v); err != nil {
				return req, err
			}
		}
	}
	return req, nil
}

// setQueryValue parses the query value v into dst by dst's Go kind. A
// pointer field gets a fresh value, so a parameter that is present is never
// mistaken for an absent one.
func setQueryValue(dst reflect.Value, name, v string) error {
	switch dst.Kind() {
	case reflect.String:
		dst.SetString(v)
	case reflect.Float64:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return core.NewValidationError(core.ErrConfig, name, "bad numeric parameter %q", v)
		}
		dst.SetFloat(f)
	case reflect.Int:
		n, err := strconv.Atoi(v)
		if err != nil {
			return core.NewValidationError(core.ErrConfig, name, "bad integer parameter %q", v)
		}
		dst.SetInt(int64(n))
	case reflect.Pointer:
		p := reflect.New(dst.Type().Elem())
		if err := setQueryValue(p.Elem(), name, v); err != nil {
			return err
		}
		dst.Set(p)
	default:
		return fmt.Errorf("serve: query parameter %q: no parser for %s", name, dst.Type())
	}
	return nil
}

// Config resolves the request into a validated core.Config, applying the
// CLI-compatible defaults. Errors are *core.ValidationError with the
// offending request field, so handlers map them to 400 responses verbatim.
func (r SolveRequest) Config() (core.Config, error) {
	m, err := Workload(r.Workload)
	if err != nil {
		return core.Config{}, err
	}
	return r.ConfigWithArrival(m)
}

// Workload resolves a catalog workload name. An unknown name is a
// *core.ValidationError on the "workload" field, so bgperfd and every
// bgperf subcommand that takes -workload report it with the same text.
func Workload(name string) (*arrival.MAP, error) {
	m, err := workload.ByName(name)
	if err != nil {
		return nil, core.NewValidationError(core.ErrConfig, "workload", "%v", err)
	}
	return m, nil
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
	// The second class's buffer counts only when the class exists, so every
	// single-class request resolves to the same config (and key) whatever
	// bg2Buffer says.
	buffer2 := 0
	if r.BG2Prob != 0 {
		buffer2 = 5
		if r.BG2Buffer != nil {
			buffer2 = *r.BG2Buffer
		}
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
		BG2Prob:      r.BG2Prob,
		BG2Buffer:    buffer2,
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
