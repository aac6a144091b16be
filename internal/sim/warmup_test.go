package sim

import (
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/phtype"
)

// Warm-up boundary accounting regression tests.
//
// The measurement window is [measStart, measEnd) with measStart =
// WarmupTime: event counters (ArrivalsFG, AdmittedBG, DroppedBG,
// IdleExpirations, …) and the WaitPFG estimator count exactly the events
// with timestamp in the window, and queue-length integrals clip every
// inter-event interval to the window, so a job in service straddling
// measStart contributes only its post-warmup area.
//
// The tests pin this via exact window additivity: the event sequence of a
// run depends only on the seed, never on the window, so a run measuring
// [0, W) and a warm-started run measuring [W, W+T) (warm-up W) must
// together account for exactly what a single run measuring [0, W+T) sees —
// counter by counter, and area by area to float round-off. Any gating bug
// (an event counted during warm-up, a straddling interval double-counted or
// dropped, an off-by-one at a window edge) breaks the partition.

func addCounters(a, b Counters) Counters {
	a.ArrivalsFG += b.ArrivalsFG
	a.CompletedFG += b.CompletedFG
	a.DelayedFG += b.DelayedFG
	a.GeneratedBG += b.GeneratedBG
	a.AdmittedBG += b.AdmittedBG
	a.DroppedBG += b.DroppedBG
	a.CompletedBG += b.CompletedBG
	a.IdleExpirations += b.IdleExpirations
	a.RenegedBG += b.RenegedBG
	a.Events += b.Events
	a.GeneratedBG2 += b.GeneratedBG2
	a.AdmittedBG2 += b.AdmittedBG2
	a.DroppedBG2 += b.DroppedBG2
	a.CompletedBG2 += b.CompletedBG2
	return a
}

func TestWarmupWindowAdditivity(t *testing.T) {
	m, err := arrival.MMPP2(0.02, 0.05, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := phtype.FitTwoMoment(1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	idlePH, err := phtype.FitTwoMoment(0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	svcMAP, err := arrival.MMPP2(0.1, 0.2, 1.5, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exp", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1}},
		{"ph-service", Config{Arrival: m, Service: ph, BGProb: 0.4, BGBuffer: 3, IdleRate: 2}},
		{"map-service", Config{Arrival: m, ServiceMAP: svcMAP, BGProb: 0.5, BGBuffer: 2, IdleRate: 1}},
		{"ph-idle", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleWait: idlePH}},
		{"det-idle", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1, IdleDist: IdleDeterministic}},
		{"per-period", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1, IdlePolicy: core.IdleWaitPerPeriod}},
		// PR 10 scenario axes: the idle-wait timer, the stretched service
		// draws, and the pooled renege timer must all respect the window
		// boundary exactly — a straddling modulated service or a renege
		// landing on measStart partitions like any other event.
		{"modulated", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1, ModFactor: 0.6}},
		{"util-threshold", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1,
			BGAdmit: core.AdmitUtilThreshold, FGThreshold: 2}},
		{"deadline", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1,
			BGAdmit: core.AdmitDeadline, DeadlineRate: 0.3}},
		{"modulated-deadline", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1,
			ModFactor: 0.7, BGAdmit: core.AdmitDeadline, DeadlineRate: 0.5}},
		{"modulated-util-per-period", Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1,
			ModFactor: 0.8, BGAdmit: core.AdmitUtilThreshold, FGThreshold: 1, IdlePolicy: core.IdleWaitPerPeriod}},
		{"two-class", Config{Arrival: m, ServiceRate: 1, BGProb: 0.3, BG2Prob: 0.4, BGBuffer: 3, BG2Buffer: 4, IdleRate: 1}},
	}
	// Non-round window edges so batch boundaries and event times never
	// align by construction.
	const W, T = 3333.3, 7777.7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				warm := tc.cfg
				warm.Seed = seed
				head, mid, full := warm, warm, warm
				head.WarmupTime, head.MeasureTime = 0, W
				mid.WarmupTime, mid.MeasureTime = W, T
				full.WarmupTime, full.MeasureTime = 0, W+T
				rHead, err := Run(head)
				if err != nil {
					t.Fatal(err)
				}
				rMid, err := Run(mid)
				if err != nil {
					t.Fatal(err)
				}
				rFull, err := Run(full)
				if err != nil {
					t.Fatal(err)
				}
				if sum := addCounters(rHead.Counters, rMid.Counters); sum != rFull.Counters {
					t.Errorf("seed %d: counters do not partition at the warm-up boundary:\n  [0,W)+[W,W+T) = %+v\n  [0,W+T)       = %+v",
						seed, sum, rFull.Counters)
				}
				type area struct {
					name             string
					head, mid, whole float64
				}
				areas := []area{
					{"QLenFG", rHead.Metrics.QLenFG, rMid.Metrics.QLenFG, rFull.Metrics.QLenFG},
					{"QLenBG", rHead.Metrics.QLenBG, rMid.Metrics.QLenBG, rFull.Metrics.QLenBG},
					{"UtilFG", rHead.Metrics.UtilFG, rMid.Metrics.UtilFG, rFull.Metrics.UtilFG},
					{"UtilBG", rHead.Metrics.UtilBG, rMid.Metrics.UtilBG, rFull.Metrics.UtilBG},
					{"ProbIdleWait", rHead.Metrics.ProbIdleWait, rMid.Metrics.ProbIdleWait, rFull.Metrics.ProbIdleWait},
					{"ProbEmpty", rHead.Metrics.ProbEmpty, rMid.Metrics.ProbEmpty, rFull.Metrics.ProbEmpty},
				}
				if rFull.Metrics.BG2 != nil {
					areas = append(areas,
						area{"QLenBG2", rHead.Metrics.BG2.QLen, rMid.Metrics.BG2.QLen, rFull.Metrics.BG2.QLen},
						area{"UtilBG2", rHead.Metrics.BG2.Util, rMid.Metrics.BG2.Util, rFull.Metrics.BG2.Util})
				}
				for _, a := range areas {
					if d := math.Abs(a.head*W+a.mid*T-a.whole*(W+T)) / (W + T); d > 1e-9 {
						t.Errorf("seed %d: %s area leaks %g across the warm-up boundary", seed, a.name, d)
					}
				}
			}
		})
	}
}

// TestWarmupLongVsWarmStarted checks the statistical face of the same
// property: a run with a long warm-up must agree with a "warm-started" run
// over the identical measurement window — here literally the same window
// [W, W+T) measured by a run that burned a warm-up of W, versus the
// tail-window accounting of the full run. With identical seeds the two are
// the same sample path, so the in-window estimates must agree exactly, not
// just statistically.
func TestWarmupLongVsWarmStarted(t *testing.T) {
	m, err := arrival.MMPP2(0.02, 0.05, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4,
		IdleRate: 1, Seed: 77, WarmupTime: 50000, MeasureTime: 100000}
	long, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shifting the warm-up/measure split while keeping the total horizon
	// and the overlap window fixed must leave in-window rates consistent:
	// compare the long-warm-up run against the additivity reconstruction.
	head := cfg
	head.WarmupTime, head.MeasureTime = 0, cfg.WarmupTime
	rHead, err := Run(head)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg
	full.WarmupTime, full.MeasureTime = 0, cfg.WarmupTime+cfg.MeasureTime
	rFull, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := addCounters(rHead.Counters, long.Counters), rFull.Counters; got != want {
		t.Errorf("long-warm-up window is not the tail of the full run:\n  head+tail %+v\n  full      %+v", got, want)
	}
	wantArea := rFull.Metrics.QLenFG*(cfg.WarmupTime+cfg.MeasureTime) - rHead.Metrics.QLenFG*cfg.WarmupTime
	if d := math.Abs(long.Metrics.QLenFG*cfg.MeasureTime-wantArea) / wantArea; d > 1e-12 {
		t.Errorf("straddling jobs leak area across measStart: rel diff %g", d)
	}
}
