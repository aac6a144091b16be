package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/par"
	"bgperf/internal/sim"
	"bgperf/internal/workload"
)

// simReps is the replication count of one sim_validate operation. Sixteen
// replications make the Student-t interval of the agreement check
// trustworthy for the slow-mixing Soft.Dev. MMPP.
const simReps = 16

// simInstance is sim_validate: replicated simulations of the validation
// table's configurations (V-1 in DESIGN.md), run in process.
type simInstance struct {
	env
	cases []simCase
	next  atomic.Int64

	mu      sync.Mutex
	answers []simAnswer
}

// simCase is one validation configuration: the simulator's config and the
// analytic model it must agree with.
type simCase struct {
	sim sim.Config
	ana core.Config
}

// simAnswer is one operation's estimate of the foreground queue length.
type simAnswer struct {
	op, c        int
	qlen, halfCI float64
}

func newSimValidate(e env) (instance, error) {
	soft, err := workload.SoftwareDevelopment()
	if err != nil {
		return nil, err
	}
	poisson, err := workload.EmailPoisson()
	if err != nil {
		return nil, err
	}
	s := &simInstance{env: e}
	// The windows (simulated ms) give every case about the same cost, half
	// a second per operation on two cores, so the latency median does not
	// depend on how many operations of each case a run completes.
	for _, c := range []struct {
		m       *arrival.MAP
		util, p float64
		window  float64
	}{
		{poisson, 0.50, 0.6, 4e6}, {poisson, 0.80, 0.9, 5e6},
		{soft, 0.30, 0.3, 1.2e7}, {soft, 0.60, 0.9, 8e6},
	} {
		scaled, err := workload.AtUtilization(c.m, c.util)
		if err != nil {
			return nil, err
		}
		window := c.window
		if e.quick {
			window /= 100
		}
		s.cases = append(s.cases, simCase{
			sim: sim.Config{
				Arrival: scaled, ServiceRate: workload.ServiceRatePerMs,
				BGProb: c.p, BGBuffer: 5, IdleRate: workload.ServiceRatePerMs,
				WarmupTime: window / 20, MeasureTime: window,
			},
			ana: core.Config{
				Arrival: scaled, ServiceRate: workload.ServiceRatePerMs,
				BGProb: c.p, BGBuffer: 5, IdleRate: workload.ServiceRatePerMs,
			},
		})
	}
	return s, nil
}

func (s *simInstance) close() error { return nil }

// config is operation i's simulation: the cases in turn, each operation
// with its own block of replication seeds.
func (s *simInstance) config(i int) (int, sim.Config) {
	c := i % len(s.cases)
	cfg := s.cases[c].sim
	cfg.Seed = s.seed*1_000_003 + int64(i)*simReps
	return c, cfg
}

// op runs the next operation's replications with sim.RunReplicationsOpts,
// as `bgperf sim -reps` does; its work is the events simulated.
func (s *simInstance) op() opResult {
	i := int(s.next.Add(1) - 1)
	c, cfg := s.config(i)
	t0 := time.Now()
	agg, err := sim.RunReplicationsOpts(context.Background(), cfg, simReps, s.workers, nil)
	r := opResult{lat: time.Since(t0)}
	if err != nil {
		return r
	}
	for _, rep := range agg.Replications {
		r.work += float64(rep.Counters.Events)
	}
	r.ok = true
	s.mu.Lock()
	s.answers = append(s.answers, simAnswer{op: i, c: c, qlen: agg.Mean.QLenFG, halfCI: agg.QLenFGHalf})
	s.mu.Unlock()
	return r
}

func (s *simInstance) load(b budget) (*phase, error) {
	s.answers = nil
	p := closedLoop(1, b, s.op)
	p.verify = s.verify
	return p, nil
}

// verify holds each simulated foreground queue length to the analytic one
// by internal/check's rule: within 4 CI half-widths plus 2% of
// (0.1 + |analytic|).
func (s *simInstance) verify() (int, error) {
	ana := make([]float64, len(s.cases))
	err := par.For(s.workers, len(s.cases), func(i int) error {
		model, err := core.NewModel(s.cases[i].ana)
		if err != nil {
			return err
		}
		sol, err := model.Solve()
		if err != nil {
			return err
		}
		ana[i] = sol.QLenFG
		return nil
	})
	if err != nil {
		return 0, err
	}
	wrong := 0
	for _, a := range s.answers {
		want := ana[a.c]
		if !(math.Abs(a.qlen-want) <= 4*a.halfCI+0.02*(0.1+math.Abs(want))) {
			wrong++
		}
	}
	return wrong, nil
}

// layers runs operations as load does, each followed by its replay in
// process: each replication is one sim.RunOpts call fanned over
// internal/par, as RunReplicationsOpts runs them.
func (s *simInstance) layers(b budget, tr *tracer) (map[string]float64, *phase, error) {
	s.answers = nil
	var events int64
	p, on, off, err := tracedPass(b, tr, s.op, func(t *tracer, op int) (time.Duration, error) {
		_, cfg := s.config(s.answers[len(s.answers)-1].op)
		t0 := time.Now()
		root := t.begin("sim.op", -1, op)
		counts := make([]int64, simReps)
		err := par.ForCtx(context.Background(), s.workers, simReps, func(r int) error {
			rc := cfg
			rc.Seed += int64(r)
			sp := t.begin("sim.rep", root, op)
			res, err := sim.RunOpts(context.Background(), rc, nil)
			t.end(sp)
			if err == nil {
				counts[r] = res.Counters.Events
			}
			return err
		})
		t.end(root)
		if t.on {
			for _, c := range counts {
				events += c
			}
		}
		return time.Since(t0), err
	})
	if err != nil {
		return nil, nil, err
	}
	p.verify = s.verify
	lt := tr.layerTimes()
	m := map[string]float64{}
	if rep, op := lt["sim.rep"], lt["sim.op"]; rep != nil && op != nil {
		m["sim.events_per_rep"] = float64(events) / float64(rep.n)
		m["sim.rep_ms"] = float64(rep.dur) / float64(rep.n) / float64(time.Millisecond)
		m["par.busy_frac"] = float64(rep.dur) / (float64(s.workers) * float64(op.dur))
	}
	m["trace.overhead_pct"] = overheadPct(on, off)
	m["trace.gap_pct"] = lt.gapPct("sim.op")
	return m, p, nil
}
