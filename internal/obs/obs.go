// Package obs is the solver observability layer: a zero-overhead-when-
// disabled instrumentation subsystem for the analytic engine (build, R
// iteration, boundary solve, metric extraction), the event simulator, the
// MAP fitting pipeline, and the mat.Workspace buffer pools.
//
// The design contract is that every producer (qbd, core, sim,
// par, mat) carries an optional Observer and guards each report with a nil
// check, so the unobserved fast path performs no timing calls and no heap
// allocations — pinned by AllocsPerRun regression tests. When an Observer is
// attached, producers report stage durations, per-iteration convergence
// residuals, event counters, and pool statistics; the concrete Diagnostics
// collector aggregates them, mirrors totals into package-level expvar
// counters, and renders a machine-readable JSON report (FlushJSON) or a
// human-readable convergence summary (WriteSummary).
//
// obs sits below every other internal package (it imports only the standard
// library), so any layer may report without import cycles.
package obs

import "time"

// Stage identifies one stage of an analytic solve. Stages are reported with
// wall-clock durations by core and qbd when an Observer is attached.
type Stage int

const (
	// StageBuild is chain assembly: Kronecker blocks and QBD boundary/
	// repeating block construction.
	StageBuild Stage = iota
	// StageRSolve is the cyclic-reduction computation of G and the rate
	// matrix R — the innermost iterative solver.
	StageRSolve
	// StageBoundary is the boundary linear system: the backward/forward
	// level-reduction sweeps and the geometric tail moments.
	StageBoundary
	// StageMetrics is metric extraction from the stationary distribution.
	StageMetrics

	numStages
)

// String returns the stable machine-readable stage name used in JSON
// reports.
func (s Stage) String() string {
	switch s {
	case StageBuild:
		return "build"
	case StageRSolve:
		return "r-solve"
	case StageBoundary:
		return "boundary"
	case StageMetrics:
		return "metrics"
	default:
		return "unknown"
	}
}

// WorkspaceStats counts buffer-pool hits (acquisitions served from a
// released buffer) and misses (fresh allocations) of a mat.Workspace, split
// by buffer kind.
type WorkspaceStats struct {
	MatrixHits   int64 `json:"matrixHits"`
	MatrixMisses int64 `json:"matrixMisses"`
	VectorHits   int64 `json:"vectorHits"`
	VectorMisses int64 `json:"vectorMisses"`
	LUHits       int64 `json:"luHits"`
	LUMisses     int64 `json:"luMisses"`
}

// Hits returns the total pool hits across buffer kinds.
func (w WorkspaceStats) Hits() int64 { return w.MatrixHits + w.VectorHits + w.LUHits }

// Misses returns the total pool misses across buffer kinds.
func (w WorkspaceStats) Misses() int64 { return w.MatrixMisses + w.VectorMisses + w.LUMisses }

// add accumulates o into w.
func (w *WorkspaceStats) add(o WorkspaceStats) {
	w.MatrixHits += o.MatrixHits
	w.MatrixMisses += o.MatrixMisses
	w.VectorHits += o.VectorHits
	w.VectorMisses += o.VectorMisses
	w.LUHits += o.LUHits
	w.LUMisses += o.LUMisses
}

// SimCounters are the event counts of one simulator run, mirroring
// sim.Counters (obs cannot import sim).
type SimCounters struct {
	ArrivalsFG      int64 `json:"arrivalsFG"`
	CompletedFG     int64 `json:"completedFG"`
	DelayedFG       int64 `json:"delayedFG"`
	GeneratedBG     int64 `json:"generatedBG"`
	AdmittedBG      int64 `json:"admittedBG"`
	DroppedBG       int64 `json:"droppedBG"`
	CompletedBG     int64 `json:"completedBG"`
	IdleExpirations int64 `json:"idleExpirations"`
	RenegedBG       int64 `json:"renegedBG"`
	// Events is the simulator's own count of events processed inside the
	// measurement window (each event may bump several of the counters
	// above).
	Events int64 `json:"events"`
}

// add accumulates o into c.
func (c *SimCounters) add(o SimCounters) {
	c.ArrivalsFG += o.ArrivalsFG
	c.CompletedFG += o.CompletedFG
	c.DelayedFG += o.DelayedFG
	c.GeneratedBG += o.GeneratedBG
	c.AdmittedBG += o.AdmittedBG
	c.DroppedBG += o.DroppedBG
	c.CompletedBG += o.CompletedBG
	c.IdleExpirations += o.IdleExpirations
	c.RenegedBG += o.RenegedBG
	c.Events += o.Events
}

// FitDiag records how closely a MAP fit matched its target descriptors
// (inter-arrival mean rate, SCV, lag-1 ACF, geometric ACF decay). Target
// fields of 0 mean "not specified".
type FitDiag struct {
	TargetRate  float64 `json:"targetRate"`
	TargetSCV   float64 `json:"targetSCV"`
	TargetACF1  float64 `json:"targetACF1"`
	TargetDecay float64 `json:"targetDecay"`
	Rate        float64 `json:"rate"`
	SCV         float64 `json:"scv"`
	ACF1        float64 `json:"acf1"`
	Decay       float64 `json:"decay"`
}

// Observer receives instrumentation events from the solver stack. All
// methods may be called concurrently (parallel sweeps share one Observer)
// and must be cheap: producers call them only when an Observer is attached,
// but possibly from hot paths. Diagnostics is the standard implementation;
// custom Observers can stream events elsewhere (metrics systems, logs).
type Observer interface {
	// StageDone reports the wall-clock duration of one solver stage.
	StageDone(s Stage, d time.Duration)
	// RIteration reports the convergence residual after one cyclic-
	// reduction iteration (1-based).
	RIteration(iter int, residual float64)
	// RSolved reports a completed R computation: the iteration count, the
	// final residual, and the spectral radius sp(R) (the tail decay rate).
	RSolved(iters int, residual, spectralRadius float64)
	// WorkspaceStats reports the buffer-pool statistics of one solve.
	WorkspaceStats(ws WorkspaceStats)
	// SimRun reports the event counters of one completed simulator run.
	SimRun(c SimCounters)
	// ReplicationDone reports simulation replication progress (done of
	// total).
	ReplicationDone(done, total int)
	// FitDone reports the matched-versus-target descriptors of a MAP fit.
	FitDone(f FitDiag)
}
