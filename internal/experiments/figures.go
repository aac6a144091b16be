package experiments

import (
	"fmt"
	"slices"
	"sync"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/par"
	"bgperf/internal/trace"
	"bgperf/internal/workload"
)

// Default sweep grids. The paper sweeps foreground utilization by scaling
// the MMPP means; the high-ACF workload saturates at far lower utilization
// than the short-range-dependent one, so the grids differ (matching the
// paper's differing x-ranges in Fig. 5–8).
var (
	emailUtils = []float64{0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28, 0.32, 0.36}
	softUtils  = []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85}
	indepUtils = []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95}

	// pAll includes the no-background baseline (Fig. 5/6); pBG covers the
	// background metrics (Fig. 7/8) where p = 0 is vacuous.
	pAll = []float64{0, 0.1, 0.3, 0.6, 0.9}
	pBG  = []float64{0.1, 0.3, 0.6, 0.9}

	idleMults = []float64{0.25, 0.5, 1, 2, 4, 8}
)

// Suite generates the paper's artifacts, caching the expensive load sweeps
// shared between figures.
//
// A Suite is safe for concurrent use: the cached sweeps are computed at most
// once (sync.Once-guarded, even under concurrent first use) and are
// read-only afterwards, so any number of goroutines may generate figures
// from one shared Suite. Grid points of a sweep are themselves fanned out
// over a bounded worker pool; results are collected index-addressed, so the
// output is bit-identical to a serial run regardless of worker count.
type Suite struct {
	workers  int
	observer obs.Observer

	once  sync.Once
	err   error
	email *sweep
	soft  *sweep
}

// NewSuite returns an empty suite; sweeps are computed on first use, their
// grid points fanned out over at most workers goroutines (workers <= 0: all
// cores; 1: serial). Every QBD solve of the cached load sweeps reports to
// the optional observer o (nil: no instrumentation), which must tolerate
// concurrent calls — sweep grid points solve in parallel.
func NewSuite(workers int, o obs.Observer) *Suite {
	return &Suite{workers: workers, observer: o}
}

// sweep holds solved metrics over a utilization × p grid for one workload.
type sweep struct {
	name    string
	utils   []float64
	ps      []float64
	metrics [][]core.Metrics // [pIdx][utilIdx]
}

// runSweep solves the model across the grid with idle wait equal to the mean
// service time (the paper's default). Grid points are independent QBD solves,
// so they fan out over the worker pool; each writes only its own
// pre-allocated metrics cell, keeping the result identical to a serial run.
func runSweep(name string, m *arrival.MAP, utils, ps []float64, workers int, o obs.Observer) (*sweep, error) {
	s := &sweep{name: name, utils: utils, ps: ps}
	s.metrics = make([][]core.Metrics, len(ps))
	for pi := range ps {
		s.metrics[pi] = make([]core.Metrics, len(utils))
	}
	err := par.For(workers, len(ps)*len(utils), func(i int) error {
		pi, ui := i/len(utils), i%len(utils)
		p, util := ps[pi], utils[ui]
		scaled, err := workload.AtUtilization(m, util)
		if err != nil {
			return fmt.Errorf("experiments: %s sweep: %w", name, err)
		}
		met, err := solveMetrics(paperConfig(scaled, p), o)
		if err != nil {
			return fmt.Errorf("experiments: %s util %g p %g: %w", name, util, p, err)
		}
		s.metrics[pi][ui] = met
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// paperConfig is the paper's model at one point: exponential 6 ms service,
// buffer 5, and a per-job idle wait with the mean service time as its mean.
func paperConfig(m *arrival.MAP, p float64) core.Config {
	return core.Config{
		Arrival:     m,
		ServiceRate: workload.ServiceRatePerMs,
		BGProb:      p,
		BGBuffer:    5,
		IdleRate:    workload.ServiceRatePerMs,
		IdlePolicy:  core.IdleWaitPerJob,
	}
}

// solveMetrics solves cfg, reporting to o when it is non-nil.
func solveMetrics(cfg core.Config, o obs.Observer) (core.Metrics, error) {
	model, err := core.NewModel(cfg)
	if err != nil {
		return core.Metrics{}, err
	}
	sol, err := model.SolveObserved(o)
	if err != nil {
		return core.Metrics{}, err
	}
	return sol.Metrics, nil
}

// series extracts one curve (metric vs utilization) from a sweep.
func (s *sweep) series(pIdx int, label string, metric func(core.Metrics) float64) Series {
	pts := make([]Point, len(s.utils))
	for ui, util := range s.utils {
		pts[ui] = Point{X: util, Y: metric(s.metrics[pIdx][ui])}
	}
	return Series{Label: label, Points: pts}
}

func (s *Suite) loadSweeps() error {
	s.once.Do(func() {
		email, err := workload.Email()
		if err != nil {
			s.err = err
			return
		}
		soft, err := workload.SoftwareDevelopment()
		if err != nil {
			s.err = err
			return
		}
		if s.email, err = runSweep("E-mail", email, emailUtils, pAll, s.workers, s.observer); err != nil {
			s.err = err
			return
		}
		s.soft, s.err = runSweep("Software Development", soft, softUtils, pAll, s.workers, s.observer)
	})
	return s.err
}

// loadFigure builds the (a) E-mail / (b) Soft.Dev pair of one load-sweep
// figure.
func (s *Suite) loadFigure(id, title, ylabel string, ps []float64, metric func(core.Metrics) float64) (Result, error) {
	if err := s.loadSweeps(); err != nil {
		return Result{}, err
	}
	build := func(sub string, sw *sweep) Figure {
		f := Figure{
			ID:     id + sub,
			Title:  fmt.Sprintf("%s — %s", title, sw.name),
			XLabel: "fg-util",
			YLabel: ylabel,
		}
		for pi, p := range sw.ps {
			if !slices.Contains(ps, p) {
				continue
			}
			f.Series = append(f.Series, sw.series(pi, fmt.Sprintf("p=%.1f", p), metric))
		}
		return f
	}
	return Result{Figures: []Figure{build("a", s.email), build("b", s.soft)}}, nil
}

// Figure1 reproduces the trace-characterization figure: the sample ACF of
// inter-arrival times of the three (synthetic) traces plus the mean/CV/
// utilization table. n is the trace length (the paper uses a few hundred
// thousand entries).
func Figure1(n int, seed int64) (Result, error) {
	traces, err := workload.Traces()
	if err != nil {
		return Result{}, err
	}
	fig := Figure{
		ID:     "fig1",
		Title:  "ACF of inter-arrival times of the three traces",
		XLabel: "lag",
		YLabel: "ACF",
		Notes:  "traces are synthetic, sampled from the fitted MMPPs (DESIGN.md substitution #1); sample utilization fluctuates across seeds because the MMPPs modulate slowly",
	}
	tbl := Table{
		ID:     "fig1-table",
		Title:  "Trace characteristics (times in ms)",
		Header: []string{"trace", "ia-mean", "ia-cv", "svc-mean", "svc-cv", "util"},
	}
	const maxLag = 100
	for i, w := range traces {
		tr := trace.GenerateWithService(w.MAP, n, seed+int64(i), workload.ServiceRatePerMs)
		acf := tr.InterarrivalACF(maxLag)
		pts := make([]Point, maxLag)
		for k, v := range acf {
			pts[k] = Point{X: float64(k + 1), Y: v}
		}
		fig.Series = append(fig.Series, Series{Label: w.Name, Points: pts})
		ia := tr.InterarrivalStats()
		sv := tr.ServiceStats()
		tbl.Rows = append(tbl.Rows, []string{
			w.Name, fmtG(ia.Mean), fmtG(ia.CV), fmtG(sv.Mean), fmtG(sv.CV),
			fmt.Sprintf("%.1f%%", 100*tr.Utilization()),
		})
	}
	return Result{Figures: []Figure{fig}, Tables: []Table{tbl}}, nil
}

// Figure2 reproduces the model-characterization figure: the analytic ACF of
// the three fitted MMPPs and their parameter table (paper Eq. 4 form).
func Figure2() (Result, error) {
	traces, err := workload.Traces()
	if err != nil {
		return Result{}, err
	}
	fig := Figure{
		ID:     "fig2",
		Title:  "ACF of the 2-state MMPP models",
		XLabel: "lag",
		YLabel: "ACF",
	}
	tbl := Table{
		ID:     "fig2-table",
		Title:  "MMPP parameters (rates per ms)",
		Header: []string{"workload", "v1", "v2", "l1", "l2", "rate", "CV", "util"},
		Notes:  "Soft.Dev. and User Accounts rows are the paper's digits; the E-mail row is re-fitted (corrupt scan)",
	}
	const maxLag = 100
	for _, w := range traces {
		acf := w.MAP.ACFSeries(maxLag)
		pts := make([]Point, maxLag)
		for k, v := range acf {
			pts[k] = Point{X: float64(k + 1), Y: v}
		}
		fig.Series = append(fig.Series, Series{Label: w.Name, Points: pts})
		d0, d1 := w.MAP.D0(), w.MAP.D1()
		tbl.Rows = append(tbl.Rows, []string{
			w.Name,
			fmtG(d0.At(0, 1)), fmtG(d0.At(1, 0)),
			fmtG(d1.At(0, 0)), fmtG(d1.At(1, 1)),
			fmtG(w.MAP.Rate()), fmtG(w.MAP.CV()),
			fmt.Sprintf("%.1f%%", 100*w.MAP.Rate()/workload.ServiceRatePerMs),
		})
	}
	return Result{Figures: []Figure{fig}, Tables: []Table{tbl}}, nil
}

// Figure5 reproduces the FG average queue length versus foreground load.
func (s *Suite) Figure5() (Result, error) {
	return s.loadFigure("fig5", "Average queue length of foreground jobs", "fg-qlen", pAll,
		func(m core.Metrics) float64 { return m.QLenFG })
}

// Figure6 reproduces the portion of FG jobs delayed by a BG job versus load.
func (s *Suite) Figure6() (Result, error) {
	return s.loadFigure("fig6", "Portion of foreground jobs delayed by a background job", "fg-delayed-frac", pAll,
		func(m core.Metrics) float64 { return m.WaitPFG })
}

// Figure7 reproduces the BG completion rate versus foreground load.
func (s *Suite) Figure7() (Result, error) {
	return s.loadFigure("fig7", "Completion rate of background jobs", "bg-completion", pBG,
		func(m core.Metrics) float64 { return m.CompBG })
}

// Figure8 reproduces the BG average queue length versus foreground load.
func (s *Suite) Figure8() (Result, error) {
	return s.loadFigure("fig8", "Average queue length of background jobs", "bg-qlen", pBG,
		func(m core.Metrics) float64 { return m.QLenBG })
}

// idleSweep solves the two trace workloads at their native utilizations
// across idle-wait durations (in multiples of the mean service time). The
// figure and series skeletons are assembled serially; the independent solves
// behind each point fan out over the worker pool and write their own
// pre-allocated point.
func idleSweep(workers int, metric func(core.Metrics) float64, id, title, ylabel string) (Result, error) {
	email, err := workload.Email()
	if err != nil {
		return Result{}, err
	}
	soft, err := workload.SoftwareDevelopment()
	if err != nil {
		return Result{}, err
	}
	var res Result
	var jobs []func() error
	for _, w := range []workload.Named{
		{Name: "E-mail", MAP: email},
		{Name: "Software Development", MAP: soft},
	} {
		w := w
		sub := "a"
		if w.Name != "E-mail" {
			sub = "b"
		}
		f := Figure{
			ID:     id + sub,
			Title:  fmt.Sprintf("%s — %s (native trace load)", title, w.Name),
			XLabel: "idle-wait (× service time)",
			YLabel: ylabel,
		}
		for _, p := range pBG {
			p := p
			pts := make([]Point, len(idleMults))
			for i, mult := range idleMults {
				i, mult := i, mult
				jobs = append(jobs, func() error {
					// Idle wait of mult service times ⇒ α = µ/mult.
					cfg := paperConfig(w.MAP, p)
					cfg.IdleRate = workload.ServiceRatePerMs / mult
					met, err := solveMetrics(cfg, nil)
					if err != nil {
						return fmt.Errorf("experiments: idle sweep %s p=%g mult=%g: %w", w.Name, p, mult, err)
					}
					pts[i] = Point{X: mult, Y: metric(met)}
					return nil
				})
			}
			f.Series = append(f.Series, Series{Label: fmt.Sprintf("p=%.1f", p), Points: pts})
		}
		res.Figures = append(res.Figures, f)
	}
	if err := par.Jobs(workers, jobs); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Figure9 reproduces the FG queue length versus idle-wait duration, fanning
// the grid out over at most workers goroutines (0: all cores).
func Figure9(workers int) (Result, error) {
	return idleSweep(workers, func(m core.Metrics) float64 { return m.QLenFG },
		"fig9", "Foreground queue length vs idle wait", "fg-qlen")
}

// Figure10 reproduces the BG completion rate versus idle-wait duration,
// fanning the grid out over at most workers goroutines (0: all cores).
func Figure10(workers int) (Result, error) {
	return idleSweep(workers, func(m core.Metrics) float64 { return m.CompBG },
		"fig10", "Background completion rate vs idle wait", "bg-completion")
}

// dependenceFigure builds the Sec. 5.4 comparison (paper Fig. 11–13): the
// same metric under High-ACF MMPP, Low-ACF MMPP, IPP, and Poisson arrivals,
// at p = 0.3 and p = 0.9. Following the paper's split x-axis, correlated and
// independent processes are reported as separate sub-figures because they
// saturate at utilizations an order of magnitude apart.
func dependenceFigure(workers int, id, title, ylabel string, metric func(core.Metrics) float64) (Result, error) {
	procs, err := workload.DependenceComparison()
	if err != nil {
		return Result{}, err
	}
	var res Result
	var jobs []func() error
	for _, p := range []float64{0.3, 0.9} {
		p := p
		for _, group := range []struct {
			sub   string
			names []string
			utils []float64
		}{
			{"-corr", []string{"High ACF", "Low ACF"}, emailUtils},
			{"-indep", []string{"IPP", "Expo"}, indepUtils},
		} {
			f := Figure{
				ID:     fmt.Sprintf("%s-p%.0f%s", id, p*10, group.sub),
				Title:  fmt.Sprintf("%s — E-mail parameterization, p=%.1f (%s arrivals)", title, p, group.sub[1:]),
				XLabel: "fg-util",
				YLabel: ylabel,
			}
			for _, proc := range procs {
				proc := proc
				if !slices.Contains(group.names, proc.Name) {
					continue
				}
				pts := make([]Point, len(group.utils))
				for i, util := range group.utils {
					i, util := i, util
					jobs = append(jobs, func() error {
						scaled, err := workload.AtUtilization(proc.MAP, util)
						if err != nil {
							return err
						}
						met, err := solveMetrics(paperConfig(scaled, p), nil)
						if err != nil {
							return fmt.Errorf("experiments: dependence %s util %g: %w", proc.Name, util, err)
						}
						pts[i] = Point{X: util, Y: metric(met)}
						return nil
					})
				}
				f.Series = append(f.Series, Series{Label: proc.Name, Points: pts})
			}
			res.Figures = append(res.Figures, f)
		}
	}
	if err := par.Jobs(workers, jobs); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Figure11 reproduces the FG queue length under the four arrival processes,
// fanning the grid out over at most workers goroutines (0: all cores).
func Figure11(workers int) (Result, error) {
	return dependenceFigure(workers, "fig11", "Average foreground queue length", "fg-qlen",
		func(m core.Metrics) float64 { return m.QLenFG })
}

// Figure12 reproduces the BG completion rate under the four arrival
// processes, fanning the grid out over at most workers goroutines (0: all
// cores).
func Figure12(workers int) (Result, error) {
	return dependenceFigure(workers, "fig12", "Background completion rate", "bg-completion",
		func(m core.Metrics) float64 { return m.CompBG })
}

// Figure13 reproduces the delayed-FG fraction under the four arrival
// processes, fanning the grid out over at most workers goroutines (0: all
// cores).
func Figure13(workers int) (Result, error) {
	return dependenceFigure(workers, "fig13", "Portion of foreground jobs delayed by a background job", "fg-delayed-frac",
		func(m core.Metrics) float64 { return m.WaitPFG })
}
