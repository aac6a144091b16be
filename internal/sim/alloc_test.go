package sim

import (
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/phtype"
	"bgperf/internal/raceflag"
)

// Steady-state allocation gates for the event loop.
//
// A run allocates a fixed setup cost (samplers, compiled distributions,
// batch arrays, the ring buffer, the Result) and must allocate nothing per
// event: before PR 7 the fgTimes append/reslice FIFO leaked capacity, so
// allocations grew with the horizon (~275k allocs for the validation
// benchmark). The gates pin both faces of "steady-state zero": the absolute
// per-run budget is small, and — the sharper invariant — the count is
// IDENTICAL for a 4x longer run, which processes ~4x the events. Any
// per-event allocation, however small, breaks the equality.

// allocBudget is the per-run setup allowance. A run currently costs ~30
// allocations (samplers, tables, batch slices, ring, Result); the headroom
// keeps the gate from tripping on toolchain noise while still catching any
// per-event regression via the equality check.
const allocBudget = 64

func allocGateConfigs(t *testing.T) map[string]Config {
	t.Helper()
	m, err := arrival.MMPP2(0.02, 0.05, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := phtype.FitTwoMoment(1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	svcMAP, err := arrival.MMPP2(0.1, 0.2, 1.5, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"exp":         {Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1, Seed: 5},
		"ph-service":  {Arrival: m, Service: ph, BGProb: 0.4, BGBuffer: 3, IdleRate: 2, Seed: 5},
		"map-service": {Arrival: m, ServiceMAP: svcMAP, BGProb: 0.5, BGBuffer: 2, IdleRate: 1, Seed: 5},
		"two-class": {Arrival: m, ServiceRate: 1, BGProb: 0.3, BG2Prob: 0.3, BGBuffer: 3, BG2Buffer: 4,
			IdleRate: 1, Seed: 5},
	}
}

func TestAllocsSteadyStateRun(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	for name, cfg := range allocGateConfigs(t) {
		t.Run(name, func(t *testing.T) {
			measure := func(horizon float64) float64 {
				c := cfg
				c.WarmupTime, c.MeasureTime = 500, horizon
				return testing.AllocsPerRun(5, func() {
					if _, err := Run(c); err != nil {
						t.Fatal(err)
					}
				})
			}
			short := measure(20000)
			long := measure(80000)
			if short != long {
				t.Errorf("allocations grow with the horizon: %.0f at T, %.0f at 4T — the event loop allocates in steady state", short, long)
			}
			if short > allocBudget {
				t.Errorf("per-run setup allocations %.0f exceed budget %d", short, allocBudget)
			}
		})
	}
}
