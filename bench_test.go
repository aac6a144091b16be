package bgperf_test

// One benchmark per reproduced paper table/figure: each iteration regenerates
// the artifact end to end (workload construction, QBD solves across the
// sweep, rendering-ready series). BenchmarkValidation additionally runs the
// event simulator. Stochastic knobs are reduced from the defaults so a
// benchmark iteration stays in the hundreds of milliseconds; the full-size
// artifacts are produced by cmd/experiments.

import (
	"testing"

	"bgperf"
	"bgperf/internal/experiments"
)

func benchOptions() experiments.Options {
	return experiments.Options{
		Seed:        1,
		TraceLength: 300000,
		MeasureTime: 2e6,
	}
}

func benchFigure(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh registry per iteration starts from an empty Suite table,
		// so every iteration measures the full artifact regeneration.
		gen, ok := experiments.Lookup(name, benchOptions())
		if !ok {
			b.Fatalf("unknown experiment %q", name)
		}
		res, err := gen.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Figures)+len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure01(b *testing.B) { benchFigure(b, "1") }
func BenchmarkFigure02(b *testing.B) { benchFigure(b, "2") }
func BenchmarkFigure05(b *testing.B) { benchFigure(b, "5") }
func BenchmarkFigure06(b *testing.B) { benchFigure(b, "6") }
func BenchmarkFigure07(b *testing.B) { benchFigure(b, "7") }
func BenchmarkFigure08(b *testing.B) { benchFigure(b, "8") }
func BenchmarkFigure09(b *testing.B) { benchFigure(b, "9") }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "10") }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "11") }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, "12") }
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "13") }

// BenchmarkValidation exercises the analytic-vs-simulation table (V-1).
func BenchmarkValidation(b *testing.B) { benchFigure(b, "validation") }

// BenchmarkSimEvents measures the raw event loop: one long single-class run
// over the paper's MMPP(2) workload per iteration, reporting throughput as
// events/sec alongside ns/op. This is the microbench behind the PR 7 event
// loop rewrite; the window-gated Counters.Events drives the custom metric.
func BenchmarkSimEvents(b *testing.B) {
	m, err := bgperf.MMPP2(0.02, 0.05, 0.9, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bgperf.SimConfig{
		Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4,
		IdleRate: 1, Seed: 1, WarmupTime: 1000, MeasureTime: 2e6,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := bgperf.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Counters.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkPlan measures one full inverse solve: each iteration searches the
// maximum sustainable BG probability under a foreground queue-length SLO on
// the software-development workload at utilization 0.3 (the ExamplePlan
// configuration) with ITP steps, including the sensitivity-neighborhood
// fan-out — about a dozen forward QBD solves per iteration.
func BenchmarkPlan(b *testing.B) {
	sd, err := bgperf.SoftwareDevelopmentWorkload()
	if err != nil {
		b.Fatal(err)
	}
	arr, err := bgperf.AtUtilization(sd, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bgperf.Config{
		Arrival:     arr,
		ServiceRate: bgperf.ServiceRatePerMs,
		BGBuffer:    5,
		IdleRate:    bgperf.ServiceRatePerMs,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bgperf.Plan(cfg, bgperf.SLO{QLenFG: 4.2})
		if err != nil {
			b.Fatal(err)
		}
		if res.Value <= 0 || res.AtCap {
			b.Fatalf("degenerate plan: %+v", res)
		}
	}
}

// BenchmarkModulatedSolve measures one analytic solve of the full PR 10
// scenario stack — capacity modulation (φ = 0.7) plus deadline admission
// (δ = 0.4) on the paper's MMPP(2) email workload — so the scenario kernels
// (modulated blocks, renege generators) are guarded alongside the baseline.
func BenchmarkModulatedSolve(b *testing.B) {
	m, err := bgperf.MMPP2(0.02, 0.05, 0.9, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bgperf.Config{
		Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4,
		IdleRate: 1, ModFactor: 0.7,
		BGAdmit: bgperf.AdmitDeadline, DeadlineRate: 0.4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := bgperf.Solve(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Metrics.DeadlineMissBG <= 0 {
			b.Fatalf("degenerate solve: miss %g", sol.Metrics.DeadlineMissBG)
		}
	}
}

// BenchmarkModulatedSim is the simulator counterpart of
// BenchmarkModulatedSolve: the same modulated/deadline configuration through
// the event loop, reporting events/sec like BenchmarkSimEvents so the
// scenario branches (whole-draw stretch, pooled renege timer) are held to the
// baseline event-loop throughput.
func BenchmarkModulatedSim(b *testing.B) {
	m, err := bgperf.MMPP2(0.02, 0.05, 0.9, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bgperf.SimConfig{
		Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4,
		IdleRate: 1, ModFactor: 0.7,
		BGAdmit: bgperf.AdmitDeadline, DeadlineRate: 0.4,
		Seed: 1, WarmupTime: 1000, MeasureTime: 2e6,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := bgperf.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Counters.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkAblation exercises the idle-policy and buffer ablations (A-1).
func BenchmarkAblation(b *testing.B) { benchFigure(b, "ablation") }

// BenchmarkExtension exercises the two-priority background table (E-1).
func BenchmarkExtension(b *testing.B) { benchFigure(b, "extension") }

// BenchmarkBaseline exercises the vacation-decomposition comparison (B-1).
func BenchmarkBaseline(b *testing.B) { benchFigure(b, "baseline") }

// BenchmarkScalability exercises the solver-scaling table (S-1); each
// iteration runs the full buffer/order sweep including X = 50.
func BenchmarkScalability(b *testing.B) { benchFigure(b, "scalability") }

// benchSuiteWorkers regenerates Figures 5–8 from a fresh Suite per iteration
// with the given worker-pool width, measuring the whole utilization ×
// BG-probability sweep (95 models the four figures share, each solved once)
// plus rendering prep.
func benchSuiteWorkers(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{Workers: workers})
		for _, run := range []func() (experiments.Result, error){
			s.Figure5, s.Figure6, s.Figure7, s.Figure8,
		} {
			res, err := run()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Figures) == 0 {
				b.Fatal("empty result")
			}
		}
	}
}

// BenchmarkSuiteSerial and BenchmarkSuiteParallel compare the Suite's grid
// fan-out with a single worker against the full worker pool (one goroutine per
// core). Their outputs are bit-identical; only wall-clock differs, by about
// the core count on sufficiently parallel hardware.
func BenchmarkSuiteSerial(b *testing.B)   { benchSuiteWorkers(b, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchSuiteWorkers(b, 0) }
