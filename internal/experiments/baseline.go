package experiments

import (
	"fmt"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/refqueue"
	"bgperf/internal/workload"
)

// Baseline generates table B-1: the exact chain versus the classical
// M/G/1-with-multiple-vacations decomposition — the modelling style of the
// paper's related work (its reference [2] and the vacation literature
// [20, 15, 22, 23]). The mapping treats every pause the server takes at an
// empty foreground queue as an i.i.d. vacation V = idle wait + one
// background service (E[V] = 1/α + 1/µ), which silently assumes background
// work is always available. The table quantifies that assumption: the
// approximation tracks the exact model only when the background buffer is
// rarely empty (high p, moderate load) and overstates foreground waiting
// badly elsewhere — the gap the paper's explicit chain closes. Poisson
// arrivals throughout; for correlated arrivals the decomposition has no
// defensible form at all, which is the paper's larger point.
func (s *Suite) Baseline() (Result, error) {
	const (
		mu    = workload.ServiceRatePerMs
		alpha = workload.ServiceRatePerMs // idle wait = one service time
	)
	tbl := Table{
		ID:    "baseline-vacation",
		Title: "Exact chain vs M/G/1 multiple-vacation decomposition (Poisson arrivals, buffer 5, idle wait = service time)",
		Header: []string{
			"util", "p",
			"fg-wait(exact)", "fg-wait(vacation)", "overstatement",
			"p(bg buffer empty)",
		},
		Notes: "vacation V = idle wait + one BG service; the decomposition assumes BG work is always pending",
	}
	var (
		svcMean = 1 / mu
		svcM2   = 2 / (mu * mu)
		vacMean = 1/alpha + 1/mu
		// V is a sum of independent exponentials:
		// E[V²] = Var + mean² = (1/α² + 1/µ²) + (1/α + 1/µ)².
		vacM2 = (1/(alpha*alpha) + 1/(mu*mu)) + vacMean*vacMean
	)
	utilGrid := []float64{0.2, 0.5, 0.8}
	pGrid := []float64{0.1, 0.5, 0.9}
	var pts []point
	for _, util := range utilGrid {
		for _, p := range pGrid {
			ap, err := arrival.Poisson(util * mu)
			if err != nil {
				return Result{}, err
			}
			pts = append(pts, point{fmt.Sprintf("baseline util %g p %g", util, p), core.Config{
				Arrival:     ap,
				ServiceRate: mu,
				BGProb:      p,
				BGBuffer:    5,
				IdleRate:    alpha,
			}})
		}
	}
	sols, err := s.solveAll(pts)
	if err != nil {
		return Result{}, err
	}
	for i, sol := range sols {
		util, p := utilGrid[i/len(pGrid)], pGrid[i%len(pGrid)]
		exactWait := sol.RespTimeFG - svcMean
		vacWait, err := refqueue.MG1VacationWait(util*mu, svcMean, svcM2, vacMean, vacM2)
		if err != nil {
			return Result{}, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.1f", util), fmt.Sprintf("%.1f", p),
			fmtG(exactWait), fmtG(vacWait),
			fmt.Sprintf("%.0f%%", 100*(vacWait-exactWait)/exactWait),
			fmtG(sol.BGOccupancyDist()[0]),
		})
	}
	return Result{Tables: []Table{tbl}}, nil
}
