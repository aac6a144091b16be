package bgperf

import (
	"context"
	"fmt"
	"math"

	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/plan"
	"bgperf/internal/sim"
)

// Option configures a single call to one of the package entry points
// (Solve, NewModel, Simulate, SimulateReplications, FitMMPP2).
// Options compose left to right; zero options reproduce the uninstrumented
// default behavior exactly. Options irrelevant to a particular entry point
// (WithReplications on Solve, say) are accepted and ignored, so one option
// slice can be threaded through a pipeline of calls.
type Option func(*callOpts)

// callOpts is the resolved option set of one call.
type callOpts struct {
	observer obs.Observer
	ctx      context.Context
	workers  int
	reps     int
	planVar  plan.Var
	tol      float64

	// err defers option-argument validation to the call site, so invalid
	// options surface as ordinary errors rather than panics.
	err error
}

// apply resolves opts over the defaults: no observer, no cancellation
// context, all cores, one replication.
func apply(opts []Option) callOpts {
	o := callOpts{reps: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// ctxErr reports an already-canceled WithContext before starting work, so
// fast analytic calls honor cancellation too.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("bgperf: canceled before start: %w", err)
	}
	return nil
}

// WithObserver attaches an Observer (typically a *Diagnostics collector) to
// the call. Every solver stage, reduction iteration, simulation run, and
// workspace pool the call touches reports to it. Without this option the
// solver runs its zero-overhead fast path: no clocks are read and no
// instrumentation allocates.
func WithObserver(o Observer) Option {
	return func(c *callOpts) { c.observer = o }
}

// WithContext attaches a cancellation context. Long operations — simulation
// event loops, replication sweeps — poll it cooperatively and return a
// context.Canceled- (or DeadlineExceeded-) wrapped error promptly after
// cancellation, matchable with errors.Is.
func WithContext(ctx context.Context) Option {
	return func(c *callOpts) { c.ctx = ctx }
}

// WithWorkers bounds the goroutine pool of parallel operations to n workers:
// the replication sweep of SimulateReplications and the sensitivity
// neighborhood of the capacity planners (Plan, PlanFromTrace). n <= 0 means
// all cores. Each analytic solve runs serially; results are bit-identical
// for every worker count.
func WithWorkers(n int) Option {
	return func(c *callOpts) { c.workers = n }
}

// planOptions bundles the resolved knobs for the inverse-solver entry points
// (Plan, PlanFromTrace, PlanCacheKey). Zero values pass through: the plan
// package is the single defaulting point, so the facade, the CLI, and the
// daemon resolve (and cache-key) identically.
func (c callOpts) planOptions() plan.Options {
	return plan.Options{
		Var:      c.planVar,
		Tol:      c.tol,
		Workers:  c.workers,
		Observer: c.observer,
		Ctx:      c.ctx,
	}
}

// WithPlanVar selects the decision variable of the inverse-solver entry
// points (Plan, PlanFromTrace): PlanBGProb (the default), PlanBGBuffer,
// PlanIdleRate, or PlanModFactor. Forward entry points accept and ignore it.
func WithPlanVar(v PlanVar) Option {
	return func(c *callOpts) {
		switch v {
		case plan.VarBGProb, plan.VarBGBuffer, plan.VarIdleRate, plan.VarModFactor:
			c.planVar = v
		default:
			c.err = core.NewValidationError(core.ErrConfig, "PlanVar",
				"unknown decision variable %d (want PlanBGProb | PlanBGBuffer | PlanIdleRate | PlanModFactor)", int(v))
		}
	}
}

// WithTolerance sets the convergence tolerance of the continuous inverse
// searches (default plan.DefaultTol = 1e-4: absolute on p and φ,
// multiplicative on the idle rate), and with it the search's iteration
// bound: bisection's count for the searched variable, at most 18 at the
// default. Non-positive or non-finite tolerances yield a ValidationError
// from the call, and so does, from the planners, a tolerance fine enough
// to need more than plan.MaxSteps (64) steps. Forward entry points accept
// and ignore it.
func WithTolerance(tol float64) Option {
	return func(c *callOpts) {
		if !(tol > 0) || math.IsInf(tol, 0) {
			c.err = core.NewValidationError(core.ErrConfig, "Tolerance",
				"tolerance %g must be positive and finite", tol)
			return
		}
		c.tol = tol
	}
}

// WithReplications sets the number of independent simulation replications
// (default 1). n < 1 yields a ValidationError from the call.
func WithReplications(n int) Option {
	return func(c *callOpts) {
		if n < 1 {
			c.err = core.NewValidationError(sim.ErrConfig, "Replications", "need at least 1 replication, got %d", n)
			return
		}
		c.reps = n
	}
}
