package bgperf

import (
	"bgperf/internal/core"
	"bgperf/internal/plan"
	"bgperf/internal/qbd"
)

// ValidationError is the typed configuration error returned by every entry
// point that validates a Config (NewModel, Solve, Simulate,
// SimulateReplications): Field names the
// offending field and Reason explains the failure. Retrieve it with
// errors.As:
//
//	var verr *bgperf.ValidationError
//	if errors.As(err, &verr) {
//		log.Printf("bad %s: %s", verr.Field, verr.Reason)
//	}
type ValidationError = core.ValidationError

// Sentinel errors of the analytic engine, matchable with errors.Is through
// any wrapping the entry points add.
var (
	// ErrUnstable reports a model whose offered load saturates the server:
	// the chain has no stationary distribution and no metrics exist.
	ErrUnstable = qbd.ErrUnstable
	// ErrNoConvergence reports an iterative solver (cyclic reduction,
	// spectral iteration) that exhausted its iteration budget.
	ErrNoConvergence = qbd.ErrNoConvergence
	// ErrInfeasible reports a capacity-planning SLO (Plan, PlanFromTrace)
	// that no value of the decision variable can meet — the constraint fails
	// even with background work effectively disabled, or the foreground load
	// alone saturates the server. The plan is never silently clamped.
	ErrInfeasible = plan.ErrInfeasible
)
