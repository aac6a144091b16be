package experiments

import (
	"fmt"
	"time"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/workload"
)

// Scalability generates table S-1: wall-clock solve time as the state space
// grows with the background buffer size and the arrival-process order. The
// repeating blocks have (2X+1)·A·S states; the dominant cost is the
// block-LU boundary sweep, since G and R come block by block over the
// repeating level's strongly connected components. Timings are
// machine-dependent — the table documents scaling shape, not absolute
// speed.
func Scalability() (Result, error) {
	tbl := Table{
		ID:     "scalability",
		Title:  "Solver wall-clock time vs state-space size (Soft.Dev. at 30% load, p = 0.6)",
		Header: []string{"buffer X", "MAP order", "block states", "solve-ms"},
		Notes:  "timings vary by machine; the shape (growth with the boundary size) is the point",
	}
	soft, err := workload.SoftwareDevelopment()
	if err != nil {
		return Result{}, err
	}
	scaled, err := workload.AtUtilization(soft, 0.3)
	if err != nil {
		return Result{}, err
	}
	// An order-4 variant: the Soft.Dev. MMPP superposed with itself.
	order4, err := scaled.Superpose(scaled)
	if err != nil {
		return Result{}, err
	}
	order4, err = order4.WithRate(scaled.Rate()) // keep the load at 30%
	if err != nil {
		return Result{}, err
	}
	for _, c := range []struct {
		buf int
		m   *arrival.MAP
	}{
		{5, scaled}, {10, scaled}, {25, scaled}, {50, scaled},
		{5, order4}, {25, order4},
	} {
		model, err := core.NewModel(core.Config{
			Arrival:     c.m,
			ServiceRate: workload.ServiceRatePerMs,
			BGProb:      0.6,
			BGBuffer:    c.buf,
			IdleRate:    workload.ServiceRatePerMs,
		})
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		if _, err := model.Solve(); err != nil {
			return Result{}, fmt.Errorf("experiments: scalability X=%d: %w", c.buf, err)
		}
		elapsed := time.Since(start)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", c.buf),
			fmt.Sprintf("%d", c.m.Order()),
			fmt.Sprintf("%d", (2*c.buf+1)*c.m.Order()),
			fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000),
		})
	}
	return Result{Tables: []Table{tbl}}, nil
}
