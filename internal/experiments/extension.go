package experiments

import (
	"fmt"

	"bgperf/internal/core"
	"bgperf/internal/par"
	"bgperf/internal/workload"
)

// Extension generates table E-1: the paper's announced future-work model of
// two background priority classes (urgent WRITE verification as class 1,
// bulk scrubbing as class 2). It splits a fixed total background probability
// across the classes and reports per-class completion under rising
// foreground load, showing what strict priority buys the urgent class.
//
// The (util, split) grid points are independent solves and fan out over at
// most workers goroutines (0: all cores); rows are collected index-addressed
// so the table matches a serial run exactly.
func Extension(workers int) (Result, error) {
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
	tbl.Rows = make([][]string, len(utilGrid)*len(splits))
	err = par.For(workers, len(tbl.Rows), func(i int) error {
		util, sp := utilGrid[i/len(splits)], splits[i%len(splits)]
		scaled, err := workload.AtUtilization(soft, util)
		if err != nil {
			return err
		}
		model, err := core.NewModel(core.Config{
			Arrival:     scaled,
			ServiceRate: workload.ServiceRatePerMs,
			BGProb:      sp.p1,
			BG2Prob:     sp.p2,
			BGBuffer:    5,
			BG2Buffer:   5,
			IdleRate:    workload.ServiceRatePerMs,
		})
		if err != nil {
			return err
		}
		sol, err := model.Solve()
		if err != nil {
			return fmt.Errorf("experiments: extension util %g split %s: %w", util, sp.name, err)
		}
		tbl.Rows[i] = []string{
			fmt.Sprintf("%.2f", util), sp.name,
			fmtG(sol.CompBG), fmtG(sol.BG2.Comp),
			fmtG(sol.QLenBG), fmtG(sol.BG2.QLen),
			fmtG(sol.QLenFG), fmtG(sol.WaitPFG),
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Tables: []Table{tbl}}, nil
}
