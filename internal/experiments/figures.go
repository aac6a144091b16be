package experiments

import (
	"fmt"
	"slices"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
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

// atLoad is the paper's model of m at background probability p as a
// function of the foreground utilization.
func atLoad(m *arrival.MAP, p float64) func(util float64) (core.Config, error) {
	return func(util float64) (core.Config, error) {
		scaled, err := workload.AtUtilization(m, util)
		if err != nil {
			return core.Config{}, err
		}
		return paperConfig(scaled, p), nil
	}
}

// pLabel labels the curve of background probability p.
func pLabel(p float64) string { return fmt.Sprintf("p=%.1f", p) }

// loadFigure declares the (a) E-mail / (b) Soft.Dev. pair of one
// load-sweep figure: one curve per p in ps over the workload's utilization
// grid, with idle wait equal to the mean service time (the paper's default).
func (s *Suite) loadFigure(id, title, ylabel string, ps []float64, metric func(core.Metrics) float64) (Result, error) {
	traces, err := workload.Traces()
	if err != nil {
		return Result{}, err
	}
	utils := [][]float64{emailUtils, softUtils}
	var panels []panel
	for i, w := range traces[:2] {
		pn := panel{Figure: Figure{
			ID:     id + string(rune('a'+i)),
			Title:  fmt.Sprintf("%s — %s", title, w.Name),
			XLabel: "fg-util",
			YLabel: ylabel,
		}}
		for _, p := range ps {
			pn.curves = append(pn.curves, curve{label: pLabel(p), xs: utils[i], model: atLoad(w.MAP, p)})
		}
		panels = append(panels, pn)
	}
	return s.figures(metric, panels)
}

// Figure1 reproduces the trace-characterization figure: the sample ACF of
// inter-arrival times of the three (synthetic) traces plus the mean/CV/
// utilization table, sampling Options.TraceLength entries per trace (the
// paper uses a few hundred thousand) from Options.Seed.
func (s *Suite) Figure1() (Result, error) {
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
		tr := trace.GenerateWithService(w.MAP, s.opts.TraceLength, s.opts.Seed+int64(i), workload.ServiceRatePerMs)
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
func (s *Suite) Figure2() (Result, error) {
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

// idleFigure declares the (a) E-mail / (b) Soft.Dev. pair of one idle-wait
// figure: the two trace workloads at their native utilizations, one curve
// per p over idle-wait durations in multiples of the mean service time.
func (s *Suite) idleFigure(id, title, ylabel string, metric func(core.Metrics) float64) (Result, error) {
	traces, err := workload.Traces()
	if err != nil {
		return Result{}, err
	}
	var panels []panel
	for i, w := range traces[:2] {
		pn := panel{Figure: Figure{
			ID:     id + string(rune('a'+i)),
			Title:  fmt.Sprintf("%s — %s (native trace load)", title, w.Name),
			XLabel: "idle-wait (× service time)",
			YLabel: ylabel,
		}}
		for _, p := range pBG {
			pn.curves = append(pn.curves, curve{label: pLabel(p), xs: idleMults, model: func(mult float64) (core.Config, error) {
				// Idle wait of mult service times ⇒ α = µ/mult.
				cfg := paperConfig(w.MAP, p)
				cfg.IdleRate = workload.ServiceRatePerMs / mult
				return cfg, nil
			}})
		}
		panels = append(panels, pn)
	}
	return s.figures(metric, panels)
}

// Figure9 reproduces the FG queue length versus idle-wait duration.
func (s *Suite) Figure9() (Result, error) {
	return s.idleFigure("fig9", "Foreground queue length vs idle wait", "fg-qlen",
		func(m core.Metrics) float64 { return m.QLenFG })
}

// Figure10 reproduces the BG completion rate versus idle-wait duration.
func (s *Suite) Figure10() (Result, error) {
	return s.idleFigure("fig10", "Background completion rate vs idle wait", "bg-completion",
		func(m core.Metrics) float64 { return m.CompBG })
}

// dependenceFigure declares the Sec. 5.4 comparison (paper Fig. 11–13): the
// same metric under High-ACF MMPP, Low-ACF MMPP, IPP, and Poisson arrivals,
// at p = 0.3 and p = 0.9. Following the paper's split x-axis, correlated and
// independent processes are reported as separate sub-figures because they
// saturate at utilizations an order of magnitude apart.
func (s *Suite) dependenceFigure(id, title, ylabel string, metric func(core.Metrics) float64) (Result, error) {
	procs, err := workload.DependenceComparison()
	if err != nil {
		return Result{}, err
	}
	var panels []panel
	for _, p := range []float64{0.3, 0.9} {
		for _, group := range []struct {
			sub   string
			names []string
			utils []float64
		}{
			{"-corr", []string{"High ACF", "Low ACF"}, emailUtils},
			{"-indep", []string{"IPP", "Expo"}, indepUtils},
		} {
			pn := panel{Figure: Figure{
				ID:     fmt.Sprintf("%s-p%.0f%s", id, p*10, group.sub),
				Title:  fmt.Sprintf("%s — E-mail parameterization, p=%.1f (%s arrivals)", title, p, group.sub[1:]),
				XLabel: "fg-util",
				YLabel: ylabel,
			}}
			for _, proc := range procs {
				if slices.Contains(group.names, proc.Name) {
					pn.curves = append(pn.curves, curve{label: proc.Name, xs: group.utils, model: atLoad(proc.MAP, p)})
				}
			}
			panels = append(panels, pn)
		}
	}
	return s.figures(metric, panels)
}

// Figure11 reproduces the FG queue length under the four arrival processes.
func (s *Suite) Figure11() (Result, error) {
	return s.dependenceFigure("fig11", "Average foreground queue length", "fg-qlen",
		func(m core.Metrics) float64 { return m.QLenFG })
}

// Figure12 reproduces the BG completion rate under the four arrival
// processes.
func (s *Suite) Figure12() (Result, error) {
	return s.dependenceFigure("fig12", "Background completion rate", "bg-completion",
		func(m core.Metrics) float64 { return m.CompBG })
}

// Figure13 reproduces the delayed-FG fraction under the four arrival
// processes.
func (s *Suite) Figure13() (Result, error) {
	return s.dependenceFigure("fig13", "Portion of foreground jobs delayed by a background job", "fg-delayed-frac",
		func(m core.Metrics) float64 { return m.WaitPFG })
}
