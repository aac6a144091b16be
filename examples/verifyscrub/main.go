// Two background priorities: WRITE verification over scrubbing.
//
// The paper closes by announcing a model extension to "more than one job
// priority level, i.e., different classes of background jobs"; this
// repository implements it. The scenario: a drive must verify a fraction of
// its writes (urgent, class 1) while also scrubbing media in the remaining
// idle time (bulk, class 2). The example solves the two-priority model
// across foreground loads, shows how strict priority shields verification
// from the scrubbing load, and cross-checks one point with the two-class
// event simulator, exiting nonzero if the two disagree. Both engines take
// the second class through the ordinary Config fields BG2Prob and
// BG2Buffer.
//
//	go run ./examples/verifyscrub
package main

import (
	"fmt"
	"log"
	"math"

	"bgperf"
)

const (
	verifyProb = 0.25 // fraction of completions spawning a verification
	scrubProb  = 0.50 // fraction of completions spawning a scrub unit

	// crossCheckTol is the largest analytic-vs-simulated gap in either
	// class's completion rate the cross-check accepts.
	crossCheckTol = 0.02
)

// config is the two-class model at one foreground load.
func config(arr *bgperf.MAP) bgperf.Config {
	return bgperf.Config{
		Arrival:     arr,
		ServiceRate: bgperf.ServiceRatePerMs,
		BGProb:      verifyProb,
		BG2Prob:     scrubProb,
		BGBuffer:    5,
		BG2Buffer:   5,
		IdleRate:    bgperf.ServiceRatePerMs,
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	soft, err := bgperf.SoftwareDevelopmentWorkload()
	if err != nil {
		return err
	}
	fmt.Printf("verification p1=%.2f (priority) + scrubbing p2=%.2f, buffers 5+5\n\n", verifyProb, scrubProb)
	fmt.Println("fg-util   verify-done   scrub-done   fg-qlen   fg-delayed")
	for _, util := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30} {
		arr, err := bgperf.AtUtilization(soft, util)
		if err != nil {
			return err
		}
		sol, err := bgperf.Solve(config(arr))
		if err != nil {
			return err
		}
		fmt.Printf("%7.2f   %10.1f%%   %9.1f%%   %7.3f   %9.2f%%\n",
			util, 100*sol.CompBG, 100*sol.BG2.Comp, sol.QLenFG, 100*sol.WaitPFG)
	}

	// Cross-check one operating point against the two-class simulator.
	arr, err := bgperf.AtUtilization(soft, 0.15)
	if err != nil {
		return err
	}
	cfg := config(arr)
	ana, err := bgperf.Solve(cfg)
	if err != nil {
		return err
	}
	simr, err := bgperf.Simulate(bgperf.SimConfig{
		Arrival: cfg.Arrival, ServiceRate: cfg.ServiceRate,
		BGProb: cfg.BGProb, BG2Prob: cfg.BG2Prob,
		BGBuffer: cfg.BGBuffer, BG2Buffer: cfg.BG2Buffer,
		IdleRate: cfg.IdleRate,
		Seed:     3, WarmupTime: 1e6, MeasureTime: 2e8,
	})
	if err != nil {
		return err
	}
	sm := simr.Metrics
	fmt.Printf("\ncross-check at 15%% load: verify-done analytic %.3f vs simulated %.3f; scrub-done %.3f vs %.3f\n",
		ana.CompBG, sm.CompBG, ana.BG2.Comp, sm.BG2.Comp)
	if math.Abs(ana.CompBG-sm.CompBG) > crossCheckTol || math.Abs(ana.BG2.Comp-sm.BG2.Comp) > crossCheckTol {
		return fmt.Errorf("analytic and simulated completion rates differ by more than %g", crossCheckTol)
	}
	fmt.Println("\nReading: strict priority keeps verification completion high while")
	fmt.Println("scrubbing absorbs the starvation as the foreground load climbs.")
	return nil
}
