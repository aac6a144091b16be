package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageStringRoundTrip(t *testing.T) {
	want := map[Stage]string{
		StageBuild:    "build",
		StageRSolve:   "r-solve",
		StageBoundary: "boundary",
		StageMetrics:  "metrics",
		Stage(99):     "unknown",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, name)
		}
	}
}

func TestDiagnosticsAggregation(t *testing.T) {
	d := NewDiagnostics()
	d.StageDone(StageBuild, 2*time.Millisecond)
	d.StageDone(StageBuild, 3*time.Millisecond)
	d.RIteration(1, 0.5)
	d.RIteration(2, 0.01)
	d.RIteration(3, 1e-12)
	d.RSolved(3, 1e-12, 0.9)
	d.WorkspaceStats(WorkspaceStats{MatrixHits: 4, MatrixMisses: 1, LUHits: 2})
	d.WorkspaceStats(WorkspaceStats{MatrixHits: 1, VectorMisses: 3})
	events0 := expSimEvents.Value()
	d.SimRun(SimCounters{ArrivalsFG: 100, CompletedFG: 99, DroppedBG: 2, Events: 250})
	d.ReplicationDone(1, 2)
	d.ReplicationDone(2, 2)
	d.FitDone(FitDiag{TargetRate: 1, Rate: 1.001})

	r := d.Report()
	if got := r.Stages["build"]; got.Count != 2 || got.Seconds < 0.004 || got.Seconds > 0.006 {
		t.Errorf("build stage = %+v, want count 2, ~5ms", got)
	}
	if r.RSolves != 1 || r.RIterations != 3 || r.LastRIterations != 3 {
		t.Errorf("R counters = %d/%d/%d", r.RSolves, r.RIterations, r.LastRIterations)
	}
	if r.LastResidual != 1e-12 || r.LastSpectralRadius != 0.9 {
		t.Errorf("last solve = %g / %g", r.LastResidual, r.LastSpectralRadius)
	}
	if len(r.ConvergenceTrace) != 3 || r.ConvergenceTrace[0] != 0.5 {
		t.Errorf("trace = %v", r.ConvergenceTrace)
	}
	if r.Workspace.Hits() != 7 || r.Workspace.Misses() != 4 {
		t.Errorf("workspace = %+v", r.Workspace)
	}
	if r.SimRuns != 1 || r.Sim.ArrivalsFG != 100 || r.Sim.Events != 250 {
		t.Errorf("sim = %d runs, %+v", r.SimRuns, r.Sim)
	}
	// The expvar mirror takes the simulator's own event count.
	if got := expSimEvents.Value() - events0; got != 250 {
		t.Errorf("bgperf.sim_events grew by %d, want 250", got)
	}
	if r.ReplicationsDone != 2 || r.ReplicationsTotal != 2 {
		t.Errorf("replications = %d/%d", r.ReplicationsDone, r.ReplicationsTotal)
	}
	if len(r.Fits) != 1 || r.Fits[0].Rate != 1.001 {
		t.Errorf("fits = %+v", r.Fits)
	}
}

// TestDiagnosticsTraceRestart checks a fresh reduction (iteration 1) resets
// the convergence trace while the aggregate iteration count keeps growing.
func TestDiagnosticsTraceRestart(t *testing.T) {
	d := NewDiagnostics()
	d.RIteration(1, 0.5)
	d.RIteration(2, 0.1)
	d.RIteration(1, 0.4)
	r := d.Report()
	if len(r.ConvergenceTrace) != 1 || r.ConvergenceTrace[0] != 0.4 {
		t.Errorf("trace = %v, want [0.4]", r.ConvergenceTrace)
	}
	if r.RIterations != 3 {
		t.Errorf("RIterations = %d, want 3", r.RIterations)
	}
}

// TestNilDiagnostics pins the typed-nil safety contract: a nil *Diagnostics
// smuggled into the Observer interface must degrade to a no-op rather than
// panic, because producers only check the interface for nil.
func TestNilDiagnostics(t *testing.T) {
	var d *Diagnostics
	var o Observer = d
	if o == nil {
		t.Fatal("typed nil compared equal to nil interface")
	}
	o.StageDone(StageBuild, time.Millisecond)
	o.RIteration(1, 0.5)
	o.RSolved(1, 1e-12, 0.9)
	o.WorkspaceStats(WorkspaceStats{MatrixHits: 1})
	o.SimRun(SimCounters{ArrivalsFG: 1, Events: 1})
	o.ReplicationDone(1, 1)
	o.FitDone(FitDiag{})
}

func TestDiagnosticsConcurrentSafety(t *testing.T) {
	d := NewDiagnostics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.StageDone(StageRSolve, time.Microsecond)
				d.RIteration(i%5+1, 0.1)
				d.WorkspaceStats(WorkspaceStats{MatrixHits: 1})
			}
		}()
	}
	wg.Wait()
	r := d.Report()
	if r.RIterations != 800 {
		t.Errorf("RIterations = %d, want 800", r.RIterations)
	}
	if r.Stages["r-solve"].Count != 800 {
		t.Errorf("r-solve count = %d, want 800", r.Stages["r-solve"].Count)
	}
	if r.Workspace.MatrixHits != 800 {
		t.Errorf("matrix hits = %d, want 800", r.Workspace.MatrixHits)
	}
}

func TestFlushJSONAndSummary(t *testing.T) {
	d := NewDiagnostics()
	d.StageDone(StageMetrics, time.Millisecond)
	d.RSolved(10, 1e-11, 0.95)
	d.WorkspaceStats(WorkspaceStats{MatrixHits: 3, MatrixMisses: 1})
	var buf bytes.Buffer
	if err := d.FlushJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("FlushJSON output not valid JSON: %v", err)
	}
	if r.Solves != 1 || r.LastRIterations != 10 {
		t.Errorf("round-tripped report = %+v", r)
	}
	var sum bytes.Buffer
	if err := d.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solves", "last reduction", "workspace pool", "75.0% reuse"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
}
