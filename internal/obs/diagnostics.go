package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Package-level counters exported via expvar (reachable through
// expvar.Handler or net/http/pprof-style debug endpoints in a long-running
// service). Every Diagnostics instance mirrors its events into these, so the
// process-wide totals survive individual collectors.
var (
	expSolves       = expvar.NewInt("bgperf.solves")
	expRIterations  = expvar.NewInt("bgperf.r_iterations")
	expSimRuns      = expvar.NewInt("bgperf.sim_runs")
	expSimEvents    = expvar.NewInt("bgperf.sim_events")
	expReplications = expvar.NewInt("bgperf.replications")
	expWsHits       = expvar.NewInt("bgperf.workspace_hits")
	expWsMisses     = expvar.NewInt("bgperf.workspace_misses")
	expFits         = expvar.NewInt("bgperf.map_fits")
)

// Diagnostics is the standard Observer: a mutex-guarded collector that
// aggregates stage timings, convergence traces, simulator counters, and
// workspace pool statistics across any number of solves and simulation runs
// (possibly concurrent — one Diagnostics may be shared by a whole parallel
// sweep). Use Report for programmatic access, FlushJSON for the
// machine-readable report, and WriteSummary for a human-readable
// convergence summary.
//
// All Observer methods are safe on a nil *Diagnostics and discard the event,
// so a typed-nil collector smuggled into an Observer interface degrades to
// no-op instrumentation instead of panicking.
type Diagnostics struct {
	mu sync.Mutex

	stageTime  [numStages]time.Duration
	stageCount [numStages]int64

	rSolves     int64
	rIterations int64
	trace       []float64 // residuals of the most recent R solve
	lastIters   int
	lastRes     float64
	lastSpR     float64

	ws WorkspaceStats

	simRuns int64
	sim     SimCounters

	repsDone, repsTotal int64

	fits []FitDiag
}

// NewDiagnostics returns an empty collector.
func NewDiagnostics() *Diagnostics { return &Diagnostics{} }

// StageDone implements Observer.
func (d *Diagnostics) StageDone(s Stage, dur time.Duration) {
	if d == nil {
		return
	}
	if s < 0 || s >= numStages {
		return
	}
	d.mu.Lock()
	d.stageTime[s] += dur
	d.stageCount[s]++
	if s == StageMetrics {
		expSolves.Add(1)
	}
	d.mu.Unlock()
}

// RIteration implements Observer. Iteration 1 starts a fresh convergence
// trace; under concurrent solves the trace interleaves reductions and only
// the aggregate counters stay exact.
func (d *Diagnostics) RIteration(iter int, residual float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.rIterations++
	if iter <= 1 {
		d.trace = d.trace[:0]
	}
	d.trace = append(d.trace, residual)
	d.mu.Unlock()
	expRIterations.Add(1)
}

// RSolved implements Observer.
func (d *Diagnostics) RSolved(iters int, residual, spectralRadius float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.rSolves++
	d.lastIters = iters
	d.lastRes = residual
	d.lastSpR = spectralRadius
	d.mu.Unlock()
}

// WorkspaceStats implements Observer.
func (d *Diagnostics) WorkspaceStats(ws WorkspaceStats) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.ws.add(ws)
	d.mu.Unlock()
	expWsHits.Add(ws.Hits())
	expWsMisses.Add(ws.Misses())
}

// SimRun implements Observer.
func (d *Diagnostics) SimRun(c SimCounters) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.simRuns++
	d.sim.add(c)
	d.mu.Unlock()
	expSimRuns.Add(1)
	expSimEvents.Add(c.Events)
}

// ReplicationDone implements Observer.
func (d *Diagnostics) ReplicationDone(done, total int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.repsDone = int64(done)
	d.repsTotal = int64(total)
	d.mu.Unlock()
	expReplications.Add(1)
}

// FitDone implements Observer.
func (d *Diagnostics) FitDone(f FitDiag) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.fits = append(d.fits, f)
	d.mu.Unlock()
	expFits.Add(1)
}

// StageReport is the aggregated timing of one solver stage.
type StageReport struct {
	// Count is how many times the stage completed.
	Count int64 `json:"count"`
	// Seconds is the accumulated wall-clock time.
	Seconds float64 `json:"seconds"`
}

// Report is the machine-readable snapshot of a Diagnostics collector —
// exactly what FlushJSON marshals.
type Report struct {
	// Solves counts completed analytic solves (metric extractions).
	Solves int64 `json:"solves"`
	// Stages maps stage name (build, r-solve, boundary, metrics) to its
	// accumulated timing.
	Stages map[string]StageReport `json:"stages"`

	// RSolves and RIterations count R computations and their summed
	// cyclic-reduction iterations.
	RSolves     int64 `json:"rSolves"`
	RIterations int64 `json:"rIterations"`
	// LastRIterations, LastResidual, and LastSpectralRadius describe the
	// most recent R computation.
	LastRIterations    int     `json:"lastRIterations"`
	LastResidual       float64 `json:"lastResidual"`
	LastSpectralRadius float64 `json:"lastSpectralRadius"`
	// ConvergenceTrace is the per-iteration residual of the most recent
	// reduction (approximate when solves ran concurrently).
	ConvergenceTrace []float64 `json:"convergenceTrace,omitempty"`

	// Workspace aggregates mat.Workspace pool hits and misses.
	Workspace WorkspaceStats `json:"workspace"`

	// SimRuns and Sim aggregate simulator runs and their event counters.
	SimRuns int64       `json:"simRuns"`
	Sim     SimCounters `json:"sim"`
	// ReplicationsDone / ReplicationsTotal report replication progress.
	ReplicationsDone  int64 `json:"replicationsDone"`
	ReplicationsTotal int64 `json:"replicationsTotal"`

	// Fits lists MAP-fit diagnostics in completion order.
	Fits []FitDiag `json:"fits,omitempty"`
}

// Report returns a consistent snapshot of everything collected so far.
func (d *Diagnostics) Report() Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := Report{
		Solves:             d.stageCount[StageMetrics],
		Stages:             make(map[string]StageReport, numStages),
		RSolves:            d.rSolves,
		RIterations:        d.rIterations,
		LastRIterations:    d.lastIters,
		LastResidual:       d.lastRes,
		LastSpectralRadius: d.lastSpR,
		Workspace:          d.ws,
		SimRuns:            d.simRuns,
		Sim:                d.sim,
		ReplicationsDone:   d.repsDone,
		ReplicationsTotal:  d.repsTotal,
	}
	for s := Stage(0); s < numStages; s++ {
		if d.stageCount[s] == 0 {
			continue
		}
		r.Stages[s.String()] = StageReport{
			Count:   d.stageCount[s],
			Seconds: d.stageTime[s].Seconds(),
		}
	}
	r.ConvergenceTrace = append([]float64(nil), d.trace...)
	r.Fits = append([]FitDiag(nil), d.fits...)
	return r
}

// FlushJSON writes the indented JSON report to w.
func (d *Diagnostics) FlushJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.Report())
}

// WriteReport writes the JSON report to the file at path and, after a line
// naming that file, the convergence summary to summary. A nil d writes
// nothing, so a command can call it whether or not diagnostics were asked
// for.
func (d *Diagnostics) WriteReport(path string, summary io.Writer) error {
	if d == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.FlushJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(summary, "diagnostics (JSON report in %s):\n", path)
	return d.WriteSummary(summary)
}

// WriteSummary writes a short human-readable convergence summary to w.
func (d *Diagnostics) WriteSummary(w io.Writer) error {
	r := d.Report()
	if r.Solves > 0 || r.RSolves > 0 {
		fmt.Fprintf(w, "solves               %12d\n", r.Solves)
		fmt.Fprintf(w, "R iterations         %12d (total over %d reductions)\n", r.RIterations, r.RSolves)
		fmt.Fprintf(w, "last reduction       %12d iterations, residual %.3g, sp(R) %.6g\n",
			r.LastRIterations, r.LastResidual, r.LastSpectralRadius)
		for _, s := range []Stage{StageBuild, StageRSolve, StageBoundary, StageMetrics} {
			if sr, ok := r.Stages[s.String()]; ok {
				fmt.Fprintf(w, "stage %-14s %12.3fms over %d calls\n", s.String(), 1e3*sr.Seconds, sr.Count)
			}
		}
	}
	if hits, misses := r.Workspace.Hits(), r.Workspace.Misses(); hits+misses > 0 {
		fmt.Fprintf(w, "workspace pool       %12d hits, %d misses (%.1f%% reuse)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if r.SimRuns > 0 {
		fmt.Fprintf(w, "sim runs             %12d (%d arrivals, %d BG drops, %d idle expirations)\n",
			r.SimRuns, r.Sim.ArrivalsFG, r.Sim.DroppedBG, r.Sim.IdleExpirations)
	}
	if r.ReplicationsTotal > 0 {
		fmt.Fprintf(w, "replications         %12d/%d\n", r.ReplicationsDone, r.ReplicationsTotal)
	}
	for _, f := range r.Fits {
		fmt.Fprintf(w, "map fit              rate %.6g (target %.6g), scv %.6g (target %.6g), decay %.6g (target %.6g)\n",
			f.Rate, f.TargetRate, f.SCV, f.TargetSCV, f.Decay, f.TargetDecay)
	}
	return nil
}
