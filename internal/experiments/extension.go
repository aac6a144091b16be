package experiments

import (
	"fmt"

	"bgperf/internal/core"
	"bgperf/internal/workload"
)

// Extension generates table E-1: the paper's announced future-work model of
// two background priority classes (urgent WRITE verification as class 1,
// bulk scrubbing as class 2). It splits a fixed total background probability
// across the classes and reports per-class completion under rising
// foreground load, showing what strict priority buys the urgent class.
func (s *Suite) Extension() (Result, error) {
	soft, err := workload.SoftwareDevelopment()
	if err != nil {
		return Result{}, err
	}
	const totalP = 0.6
	splits := []struct {
		name   string
		p1, p2 float64
	}{
		{"25/75", 0.15, 0.45},
		{"50/50", 0.30, 0.30},
		{"75/25", 0.45, 0.15},
	}
	tbl := Table{
		ID:    "extension-priorities",
		Title: "Two background priority classes (Soft.Dev.; total p = 0.6; buffers 5+5; idle wait = service time)",
		Header: []string{
			"util", "split p1/p2",
			"compBG1", "compBG2", "qlenBG1", "qlenBG2", "qlenFG", "waitPFG",
		},
		Notes: "class 1 (e.g. WRITE verification) is picked before class 2 (e.g. scrubbing) at every idle-wait expiry",
	}
	utilGrid := []float64{0.10, 0.20, 0.30}
	var pts []point
	for _, util := range utilGrid {
		scaled, err := workload.AtUtilization(soft, util)
		if err != nil {
			return Result{}, err
		}
		for _, sp := range splits {
			pts = append(pts, point{fmt.Sprintf("extension util %g split %s", util, sp.name), core.Config{
				Arrival:     scaled,
				ServiceRate: workload.ServiceRatePerMs,
				BGProb:      sp.p1,
				BG2Prob:     sp.p2,
				BGBuffer:    5,
				BG2Buffer:   5,
				IdleRate:    workload.ServiceRatePerMs,
			}})
		}
	}
	sols, err := s.solveAll(pts)
	if err != nil {
		return Result{}, err
	}
	for i, sol := range sols {
		util, sp := utilGrid[i/len(splits)], splits[i%len(splits)]
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.2f", util), sp.name,
			fmtG(sol.CompBG), fmtG(sol.BG2.Comp),
			fmtG(sol.QLenBG), fmtG(sol.BG2.QLen),
			fmtG(sol.QLenFG), fmtG(sol.WaitPFG),
		})
	}
	return Result{Tables: []Table{tbl}}, nil
}
