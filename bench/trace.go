package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bgperf/internal/obs"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent indexes the span that made the call (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer started
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing, so a replay can run once with spans and once without to
// measure what tracing costs. Solver counters reported through the
// observer are kept either way.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span

	rsolves, rsolveIters atomic.Int64
	wsHits, wsMisses     atomic.Int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span that has already ended.
func (t *tracer) add(name string, start, end int64, parent, op int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	t.mu.Unlock()
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedPass runs operations one at a time until the budget is spent. Each
// live operation is followed by its replay in process, once with spans and
// once without, in alternating order, so that a drift in the machine's
// speed falls on all three alike. replay replays the latest live
// operation under the given operation id and returns how long the
// operation took, leaving out its set-up as a live operation's latency
// does. tracedPass returns the live operations' phase and the total times
// of the replays with and without spans.
func tracedPass(b budget, tr *tracer, live func() opResult, replay func(t *tracer, op int) (time.Duration, error)) (p *phase, on, off time.Duration, err error) {
	quiet := newTracer(false)
	p = &phase{}
	deadline := time.Now().Add(b.d)
	for op := 0; (b.d == 0 || time.Now().Before(deadline)) && (b.ops == 0 || op < b.ops); op++ {
		r := live()
		p.add(r)
		if !r.ok {
			continue
		}
		order := []*tracer{tr, quiet}
		if op%2 == 1 {
			order[0], order[1] = quiet, tr
		}
		for _, t := range order {
			d, err := replay(t, op)
			if err != nil {
				return nil, 0, 0, err
			}
			if t == tr {
				on += d
			} else {
				off += d
			}
		}
	}
	return p, on, off, nil
}

// overheadPct is the share by which recording spans slowed the replay.
func overheadPct(on, off time.Duration) float64 {
	return 100 * ratio(float64(on-off), float64(off))
}

// stageNames maps solver stages to span names.
var stageNames = map[obs.Stage]string{
	obs.StageBuild:    "core.build",
	obs.StageRSolve:   "qbd.rsolve",
	obs.StageBoundary: "qbd.boundary",
	obs.StageMetrics:  "core.metrics",
}

// stageObserver turns the solver's stage reports into spans under the
// span of the solve that made them, and feeds the tracer's solver counters.
// A stage is reported when it ends, with its duration, so its start is
// recovered by subtraction.
type stageObserver struct {
	t          *tracer
	parent, op int
}

func (o stageObserver) StageDone(s obs.Stage, d time.Duration) {
	if o.t.on {
		end := o.t.now()
		o.t.add(stageNames[s], end-int64(d), end, o.parent, o.op)
	}
}

func (o stageObserver) RSolved(iters int, _, _ float64) {
	o.t.rsolves.Add(1)
	o.t.rsolveIters.Add(int64(iters))
}

func (o stageObserver) WorkspaceStats(ws obs.WorkspaceStats) {
	o.t.wsHits.Add(ws.Hits())
	o.t.wsMisses.Add(ws.Misses())
}

func (stageObserver) RIteration(int, float64)  {}
func (stageObserver) SimRun(obs.SimCounters)   {}
func (stageObserver) ReplicationDone(int, int) {}
func (stageObserver) FitDone(obs.FitDiag)      {}

// layerTimes sums, per span name, how many spans there were, their total
// duration and their total self time: a span's duration minus the part of
// it that its children cover. Children may overlap when a layer fans out,
// so the covered part is the length of their union.
type layerTimes map[string]*layerTime

type layerTime struct {
	n         int
	dur, self time.Duration
}

func (t *tracer) layerTimes() layerTimes {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := layerTimes{}
	for i, s := range t.spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.n++
		lt.dur += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfUS returns the mean self time of the named spans in microseconds, 0
// when the run made no such call.
func (lt layerTimes) selfUS(name string) float64 {
	l := lt[name]
	if l == nil || l.n == 0 {
		return 0
	}
	return float64(l.self) / float64(l.n) / float64(time.Microsecond)
}

// gapPct is the share of the named unit spans' time that no child span
// covers: the part of an operation the per-layer numbers do not explain.
func (lt layerTimes) gapPct(unit string) float64 {
	l := lt[unit]
	if l == nil || l.dur == 0 {
		return 0
	}
	return 100 * float64(l.self) / float64(l.dur)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// solverLayers fills the solver metrics every traced replay reports from
// the spans and the observer's counters.
func (t *tracer) solverLayers(lt layerTimes, m map[string]float64) {
	builds := 0
	if l := lt["core.build"]; l != nil {
		builds = l.n
	}
	var build time.Duration
	for _, name := range []string{"core.new_model", "core.build"} {
		if l := lt[name]; l != nil {
			build += l.self
		}
	}
	m["core.build_us"] = ratio(float64(build)/float64(time.Microsecond), float64(builds))
	m["core.metrics_us"] = lt.selfUS("core.metrics")
	m["qbd.rsolve_us"] = lt.selfUS("qbd.rsolve")
	m["qbd.boundary_us"] = lt.selfUS("qbd.boundary")
	m["qbd.rsolve_iters"] = ratio(float64(t.rsolveIters.Load()), float64(t.rsolves.Load()))
	hits, misses := float64(t.wsHits.Load()), float64(t.wsMisses.Load())
	m["mat.ws_hit_ratio"] = ratio(hits, hits+misses)
}
