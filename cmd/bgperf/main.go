// Command bgperf solves, simulates, and characterizes the paper's
// foreground/background storage model from the command line.
//
// Usage:
//
//	bgperf solve -workload email -util 0.3 -p 0.3            # analytic metrics
//	bgperf solve -workload softdev -util 0.2 -p 0.3 -p2 0.3  # two BG priorities
//	bgperf plan  -workload email -util 0.3 -slo-qlen 5       # max sustainable p under an SLO
//	bgperf plan  -trace io.ndjson -slo-resp 50 -var alpha    # ingest → fit → project
//	bgperf sim   -workload softdev -util 0.5 -p 0.6 -time 2e8
//	bgperf sim   -workload email -util 0.2 -p 0.9 -reps 8 -workers 0  # parallel replications
//	bgperf trace -workload email -n 100000 -out trace.csv    # synthetic trace
//	bgperf fit   -rate 0.0133 -scv 100 -decay 0.999          # MMPP2 moment fit
//	bgperf acf   -workload useraccounts -lags 50             # analytic ACF
//	bgperf transient -workload email -util 0.1 -horizon 500  # warmup trajectory
//	bgperf check -n 64 -seed 1                               # solver/simulator conformance
//
// Workloads: email, softdev, useraccounts (the paper's trace MMPPs), plus
// email-lowacf, email-ipp, poisson.
//
// Model parameters resolve through the same request struct the bgperfd
// daemon uses (internal/serve.SolveRequest), so a CLI invocation and the
// equivalent HTTP request always describe — and cache-key to — the same
// model, and `bgperf plan -json` is byte-identical to the daemon's
// /v1/optimize "plan" object. solve, plan, sim and transient share those
// model flags, including -p2/-buffer2 for a second, lower-priority
// background class (the paper's Sec. 6 multiple priority levels).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"bgperf"
	"bgperf/internal/arrival"
	"bgperf/internal/check"
	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/plan"
	"bgperf/internal/serve"
	"bgperf/internal/sim"
	"bgperf/internal/trace"
	"bgperf/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgperf:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (solve | plan | sim | trace | fit | acf | transient | check)")
	}
	switch args[0] {
	case "solve":
		return cmdSolve(args[1:], out)
	case "plan":
		return cmdPlan(args[1:], out)
	case "sim":
		return cmdSim(args[1:], out)
	case "trace":
		return cmdTrace(args[1:], out)
	case "fit":
		return cmdFit(args[1:], out)
	case "acf":
		return cmdACF(args[1:], out)
	case "transient":
		return cmdTransient(args[1:], out)
	case "check":
		return cmdCheck(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want solve | plan | sim | trace | fit | acf | transient | check)", args[0])
	}
}

// modelFlags holds the model flags shared by solve, plan, sim and transient.
type modelFlags struct {
	workload     *string
	util         *float64
	p            *float64
	buffer       *int
	idleMult     *float64
	policy       *string
	serviceSCV   *float64
	idleSCV      *float64
	modFactor    *float64
	admit        *string
	fgThreshold  *int
	deadlineRate *float64
	p2           *float64
	buffer2      *int
}

func addModelFlags(fs *flag.FlagSet) modelFlags {
	return modelFlags{
		workload:     fs.String("workload", "email", "arrival workload (email | softdev | useraccounts | email-lowacf | email-ipp | poisson)"),
		util:         fs.Float64("util", 0, "foreground utilization to scale to (0 keeps the native trace load)"),
		p:            fs.Float64("p", 0.3, "probability a foreground completion spawns a background job"),
		buffer:       fs.Int("buffer", 5, "background buffer capacity"),
		idleMult:     fs.Float64("idlemult", 1, "mean idle wait in multiples of the 6 ms service time"),
		policy:       fs.String("policy", "per-job", "idle-wait policy (per-job | per-period)"),
		serviceSCV:   fs.Float64("servicescv", 1, "service-time SCV at the 6 ms mean (1: exponential; <1: Erlang; >1: hyperexponential)"),
		idleSCV:      fs.Float64("idlescv", 1, "idle-wait SCV at the chosen mean (1: exponential; <1: Erlang, approximating fixed firmware timers)"),
		modFactor:    fs.Float64("mod", 1, "capacity-modulation factor φ ∈ (0,1]: service rate while BG work is present (1 = no modulation)"),
		admit:        fs.String("admit", "all", "background admission policy (all | util-threshold | deadline)"),
		fgThreshold:  fs.Int("fgthreshold", 0, "util-threshold policy: admit BG only when at most this many FG jobs wait"),
		deadlineRate: fs.Float64("deadlinerate", 0, "deadline policy: renege rate δ per waiting background job"),
		p2:           fs.Float64("p2", 0, "spawn probability of a second, lower-priority background class (0 = none; p + p2 <= 1)"),
		buffer2:      fs.Int("buffer2", 5, "class-2 background buffer capacity (used when -p2 > 0)"),
	}
}

// request lifts the flag values into the daemon's request vocabulary. The
// CLI guards -idlemult itself because its flag defaults to 1: an explicit 0
// is a user error here, whereas the zero value in a JSON body means "use
// the default".
func (f modelFlags) request() (serve.SolveRequest, error) {
	if *f.idleMult <= 0 {
		return serve.SolveRequest{}, fmt.Errorf("idlemult must be positive")
	}
	return serve.SolveRequest{
		Workload:     *f.workload,
		Utilization:  *f.util,
		BGProb:       *f.p,
		BGBuffer:     f.buffer,
		IdleMult:     *f.idleMult,
		Policy:       *f.policy,
		ServiceSCV:   *f.serviceSCV,
		IdleSCV:      *f.idleSCV,
		ModFactor:    *f.modFactor,
		BGAdmit:      *f.admit,
		FGThreshold:  *f.fgThreshold,
		DeadlineRate: *f.deadlineRate,
		BG2Prob:      *f.p2,
		BG2Buffer:    f.buffer2,
	}, nil
}

// build resolves the flags into a validated model configuration through the
// same serve.SolveRequest defaulting the bgperfd daemon applies, so a CLI
// invocation and the equivalent HTTP request describe the same model.
func (f modelFlags) build() (core.Config, error) {
	req, err := f.request()
	if err != nil {
		return core.Config{}, err
	}
	return req.Config()
}

func printMetrics(out io.Writer, m core.Metrics) {
	fmt.Fprintf(out, "fg queue length      %12.6g\n", m.QLenFG)
	fmt.Fprintf(out, "fg response time ms  %12.6g\n", m.RespTimeFG)
	fmt.Fprintf(out, "fg delayed by bg     %12.6g\n", m.WaitPFG)
	fmt.Fprintf(out, "bg completion rate   %12.6g\n", m.CompBG)
	fmt.Fprintf(out, "bg queue length      %12.6g\n", m.QLenBG)
	fmt.Fprintf(out, "util fg/bg           %12.6g %.6g\n", m.UtilFG, m.UtilBG)
	fmt.Fprintf(out, "p(idle-wait)/p(empty)%12.6g %.6g\n", m.ProbIdleWait, m.ProbEmpty)
	fmt.Fprintf(out, "bg gen/drop rate     %12.6g %.6g\n", m.GenRateBG, m.DropRateBG)
	if bg2 := m.BG2; bg2 != nil {
		fmt.Fprintf(out, "class-2 completion   %12.6g\n", bg2.Comp)
		fmt.Fprintf(out, "class-2 queue length %12.6g\n", bg2.QLen)
		fmt.Fprintf(out, "bg throughput 1/2    %12.6g %.6g\n", m.ThroughputBG, bg2.Throughput)
	}
}

// printTails appends tail descriptors to the solve output.
func printTails(out io.Writer, sol *core.Solution) {
	fmt.Fprintf(out, "fg qlen stddev       %12.6g\n", sol.FGQueueStdDev())
	fmt.Fprintf(out, "tail decay sp(R)     %12.6g\n", sol.TailDecayRate())
	qs := []float64{0.5, 0.95, 0.99}
	fmt.Fprintf(out, "fg qlen quantiles    ")
	for _, q := range qs {
		n, err := sol.FGQueueQuantile(q)
		if err != nil {
			fmt.Fprintf(out, "q%02.0f=err ", 100*q)
			continue
		}
		fmt.Fprintf(out, "q%02.0f=%d ", 100*q, n)
	}
	fmt.Fprintln(out)
}

// newDiag returns the collector a -diag path asks for and the observer to
// hand the solver. Without -diag both are nil, and the observer is an
// untyped nil rather than a nil *obs.Diagnostics boxed in obs.Observer,
// which would be non-nil and put every solve on its timed path.
func newDiag(path string) (*obs.Diagnostics, obs.Observer) {
	if path == "" {
		return nil, nil
	}
	d := obs.NewDiagnostics()
	return d, d
}

func cmdSolve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	mf := addModelFlags(fs)
	asJSON := fs.Bool("json", false, "emit the metrics as JSON")
	diagPath := fs.String("diag", "", "write a JSON diagnostics report (stage timings, convergence trace, workspace stats) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := mf.build()
	if err != nil {
		return err
	}
	model, err := bgperf.NewModel(cfg)
	if err != nil {
		return err
	}
	diag, o := newDiag(*diagPath)
	sol, err := model.SolveObserved(o)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sol.Metrics); err != nil {
			return err
		}
		return diag.WriteReport(*diagPath, out)
	}
	idleMean := 0.0
	if cfg.IdleWait != nil {
		idleMean = cfg.IdleWait.Mean()
	} else if cfg.IdleRate > 0 {
		idleMean = 1 / cfg.IdleRate
	}
	fmt.Fprintf(out, "workload %s, fg-util %.4g, p %.3g, buffer %d, ",
		*mf.workload, model.FGUtilization(), cfg.BGProb, cfg.BGBuffer)
	if cfg.BG2Prob > 0 {
		fmt.Fprintf(out, "p2 %.3g, buffer2 %d, ", cfg.BG2Prob, cfg.BG2Buffer)
	}
	fmt.Fprintf(out, "idle wait %.3g ms (%s)\n", idleMean, cfg.IdlePolicy)
	printMetrics(out, sol.Metrics)
	printTails(out, sol)
	return diag.WriteReport(*diagPath, out)
}

// cmdPlan runs the inverse solver: given a foreground SLO, it searches the
// largest sustainable value of one background knob (p, X, or α). The flags
// become the daemon's serve.OptimizeRequest, resolved and validated by the
// same methods /v1/optimize and, with -trace (an MMPP(2) fitted to an
// NDJSON trace), /v1/plan-from-trace use; the -json report is
// byte-identical to the daemon's "plan" object for the same parameters.
func cmdPlan(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	mf := addModelFlags(fs)
	var (
		sloQLen   = fs.Float64("slo-qlen", 0, "SLO: mean foreground queue length bound (0 = unset)")
		sloWaitP  = fs.Float64("slo-waitp", 0, "SLO: bound on the fraction of foreground arrivals delayed by background work (0 = unset)")
		sloResp   = fs.Float64("slo-resp", 0, "SLO: mean foreground response time bound in ms (0 = unset)")
		varName   = fs.String("var", "p", "decision variable: p (BG spawn probability), x (BG buffer), alpha (idle rate), or mod (minimum feasible modulation factor φ)")
		tol       = fs.Float64("tol", 0, "convergence tolerance of the continuous searches (0 = planner default); it also bounds the search's iterations")
		tracePath = fs.String("trace", "", "fit the arrival process from this NDJSON trace instead of -workload")
		workers   = fs.Int("workers", 0, "max goroutines for the sensitivity neighborhood (0 = all cores); results are identical for every setting")
		asJSON    = fs.Bool("json", false, "emit the plan report as JSON (byte-identical to the daemon's /v1/optimize plan object)")
		diagPath  = fs.String("diag", "", "write a JSON diagnostics report (stage timings across every search solve) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0")
	}
	sreq, err := mf.request()
	if err != nil {
		return err
	}
	req := serve.OptimizeRequest{
		SolveRequest: sreq,
		SLO:          plan.SLO{QLenFG: *sloQLen, WaitPFG: *sloWaitP, RespTimeFG: *sloResp},
		Var:          *varName,
		Tolerance:    *tol,
	}
	var (
		cfg  core.Config
		slo  plan.SLO
		opts plan.Options
		fit  *serve.FitSummary
	)
	if *tracePath == "" {
		cfg, slo, opts, err = req.PlanInputs()
	} else {
		var tr *trace.Trace
		if tr, err = readTrace(*tracePath); err == nil {
			cfg, slo, opts, fit, err = req.TracePlanInputs(tr)
		}
	}
	if err != nil {
		return err
	}
	opts.Workers = *workers
	diag, o := newDiag(*diagPath)
	opts.Observer = o
	res, err := plan.Maximize(cfg, slo, opts)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		return diag.WriteReport(*diagPath, out)
	}
	if fit != nil {
		fmt.Fprintf(out, "fitted MMPP2 from %d trace samples: rate=%.6g scv=%.6g acf1=%.6g\n",
			fit.Samples, fit.Rate, fit.SCV, fit.ACF1)
	}
	frontier := "max sustainable"
	if opts.Var == plan.VarModFactor {
		// The φ search runs downward: its frontier is the deepest feasible
		// modulation, and the bracket (if any) lies below it.
		frontier = "min sustainable"
	}
	fmt.Fprintf(out, "%s %s   %12.6g", frontier, res.Var, res.Value)
	if res.AtCap {
		fmt.Fprintf(out, " (at the search cap: the SLO holds everywhere searched)")
	}
	fmt.Fprintln(out)
	if res.Bracket > 0 {
		fmt.Fprintf(out, "first infeasible %s  %12.6g\n", res.Var, res.Bracket)
	}
	fmt.Fprintf(out, "search               %d iterations, %d solves\n", res.Iterations, res.Solves)
	printMetrics(out, res.Metrics)
	if len(res.Neighborhood) > 0 {
		fmt.Fprintln(out, "sensitivity:")
		for _, nb := range res.Neighborhood {
			status := "holds"
			if !nb.Holds {
				status = "violates"
			}
			fmt.Fprintf(out, "  %s=%-10.6g %-8s qlen %.6g  delayed %.6g  resp %.6g ms\n",
				res.Var, nb.Value, status, nb.Metrics.QLenFG, nb.Metrics.WaitPFG, nb.Metrics.RespTimeFG)
		}
	}
	return diag.WriteReport(*diagPath, out)
}

// readTrace reads the NDJSON trace file at path.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadNDJSON(f)
}

func cmdSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	mf := addModelFlags(fs)
	var (
		simTime  = fs.Float64("time", 1e8, "measured simulation time in ms")
		seed     = fs.Int64("seed", 1, "random seed")
		reps     = fs.Int("reps", 1, "independent replications (seeds seed..seed+reps-1), aggregated as mean ± 95% CI")
		workers  = fs.Int("workers", 0, "max goroutines for replications (0 = all cores, 1 = serial); results are identical for every setting")
		detIdle  = fs.Bool("detidle", false, "use a deterministic idle wait instead of exponential")
		asJSON   = fs.Bool("json", false, "emit the metrics as JSON")
		diagPath = fs.String("diag", "", "write a JSON diagnostics report (event counters, replication progress) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("reps must be >= 1")
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0")
	}
	cfg, err := mf.build()
	if err != nil {
		return err
	}
	simCfg := sim.FromModel(cfg, *seed, *simTime/20, *simTime)
	if *detIdle {
		simCfg.IdleDist = bgperf.IdleDeterministic
	}
	diag, o := newDiag(*diagPath)
	simOpts := []bgperf.Option{bgperf.WithWorkers(*workers), bgperf.WithReplications(*reps), bgperf.WithObserver(o)}
	if *reps > 1 {
		agg, err := bgperf.SimulateReplications(simCfg, simOpts...)
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(agg); err != nil {
				return err
			}
		} else {
			// The worker count is deliberately not echoed: output must be
			// byte-identical for every -workers setting.
			fmt.Fprintf(out, "simulated %d replications × %.4g ms (seeds %d..%d)\n",
				*reps, simCfg.MeasureTime, *seed, *seed+int64(*reps)-1)
			printMetrics(out, agg.Mean)
			fmt.Fprintf(out, "qlen 95%% half-width  %12.6g (fg) %.6g (bg)\n", agg.QLenFGHalf, agg.QLenBGHalf)
			fmt.Fprintf(out, "resp 95%% half-width  %12.6g ms (fg)\n", agg.RespTimeFGHalf)
		}
		return diag.WriteReport(*diagPath, out)
	}
	res, err := bgperf.Simulate(simCfg, simOpts...)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Metrics); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "simulated %.4g ms (seed %d): %d fg arrivals, %d bg generated\n",
			res.SimTime, *seed, res.Counters.ArrivalsFG, res.Counters.GeneratedBG)
		printMetrics(out, res.Metrics)
		fmt.Fprintf(out, "qlen 95%% half-width  %12.6g (fg) %.6g (bg)\n", res.QLenFGHalf, res.QLenBGHalf)
	}
	return diag.WriteReport(*diagPath, out)
}

func cmdTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		name = fs.String("workload", "email", "arrival workload")
		n    = fs.Int("n", 100000, "number of requests")
		seed = fs.Int64("seed", 1, "random seed")
		dest = fs.String("out", "", "output CSV path (default: stats to stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := serve.Workload(*name)
	if err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("trace length must be positive")
	}
	tr := trace.GenerateWithService(m, *n, *seed, workload.ServiceRatePerMs)
	ia := tr.InterarrivalStats()
	sv := tr.ServiceStats()
	fmt.Fprintf(out, "trace: %d requests from %s\n", *n, *name)
	fmt.Fprintf(out, "inter-arrival mean %.6g ms, CV %.4g\n", ia.Mean, ia.CV)
	fmt.Fprintf(out, "service       mean %.6g ms, CV %.4g\n", sv.Mean, sv.CV)
	fmt.Fprintf(out, "utilization   %.4g\n", tr.Utilization())
	acf := tr.InterarrivalACF(10)
	fmt.Fprintf(out, "sample ACF(1..10): ")
	for _, v := range acf {
		fmt.Fprintf(out, "%.3f ", v)
	}
	fmt.Fprintln(out)
	if *dest == "" {
		return nil
	}
	f, err := os.Create(*dest)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *dest)
	return f.Close()
}

func cmdFit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	var (
		rate  = fs.Float64("rate", 1.0/75, "target mean arrival rate (per ms)")
		scv   = fs.Float64("scv", 20, "target squared coefficient of variation")
		acf1  = fs.Float64("acf1", 0, "target lag-1 ACF (0: implied by scv and decay)")
		decay = fs.Float64("decay", 0.99, "target geometric ACF decay")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := arrival.FitMMPP2(arrival.FitSpec{Rate: *rate, SCV: *scv, ACF1: *acf1, Decay: *decay})
	if err != nil {
		return err
	}
	d0, d1 := m.D0(), m.D1()
	fmt.Fprintf(out, "MMPP2 fit: v1=%.8g v2=%.8g l1=%.8g l2=%.8g\n",
		d0.At(0, 1), d0.At(1, 0), d1.At(0, 0), d1.At(1, 1))
	fmt.Fprintf(out, "achieved: rate=%.6g scv=%.6g acf1=%.6g decay=%.6g\n",
		m.Rate(), m.SCV(), m.ACF(1), m.ACFDecay())
	return nil
}

func cmdACF(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("acf", flag.ContinueOnError)
	var (
		name = fs.String("workload", "email", "arrival workload")
		lags = fs.Int("lags", 20, "number of lags")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := serve.Workload(*name)
	if err != nil {
		return err
	}
	if *lags < 1 {
		return fmt.Errorf("lags must be >= 1")
	}
	fmt.Fprintf(out, "%s: rate=%.6g scv=%.6g\n", *name, m.Rate(), m.SCV())
	for k, v := range m.ACFSeries(*lags) {
		fmt.Fprintf(out, "%4d %.6f\n", k+1, v)
	}
	return nil
}

func cmdTransient(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("transient", flag.ContinueOnError)
	mf := addModelFlags(fs)
	var (
		horizon  = fs.Float64("horizon", 500, "trajectory horizon in ms")
		points   = fs.Int("points", 10, "number of evenly spaced time points")
		maxLevel = fs.Int("maxlevel", 60, "chain truncation: the largest foreground count kept (raise for high loads)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := mf.build()
	if err != nil {
		return err
	}
	if *horizon <= 0 || *points < 1 {
		return fmt.Errorf("horizon and points must be positive")
	}
	model, err := bgperf.NewModel(cfg)
	if err != nil {
		return err
	}
	times := make([]float64, *points)
	for i := range times {
		times[i] = *horizon * float64(i+1) / float64(*points)
	}
	pts, err := model.Transient(*maxLevel, times)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "warmup from an empty system (workload %s, fg-util %.4g, p %.3g)\n",
		*mf.workload, model.FGUtilization(), cfg.BGProb)
	fmt.Fprintf(out, "%10s %10s %10s %10s %10s\n", "t-ms", "fg-qlen", "bg-qlen", "p(empty)", "util-bg")
	for _, pt := range pts {
		fmt.Fprintf(out, "%10.4g %10.6g %10.6g %10.6g %10.6g\n",
			pt.Time, pt.QLenFG, pt.QLenBG, pt.ProbEmpty, pt.UtilBG)
	}
	return nil
}

// cmdCheck runs the cross-model conformance harness (internal/check): random
// valid configurations solved analytically and simulated with replications,
// with CI-calibrated agreement on the paper's four metrics, structural
// invariants at solver precision, and exact-oracle limit collapses. A
// failing run prints every violation and exits nonzero.
func cmdCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 64, "number of random configurations to check")
		seed     = fs.Int64("seed", 1, "configuration-generator seed (failures reproduce from seed and case index)")
		tol      = fs.Float64("tol", 0.02, "deterministic part of the agreement band, added to 4x the replication CI half-width")
		reps     = fs.Int("reps", 6, "simulation replications per configuration")
		workers  = fs.Int("workers", 0, "max goroutines for replications (0 = all cores)")
		asJSON   = fs.Bool("json", false, "emit the full conformance report as JSON")
		diagPath = fs.String("diag", "", "write a JSON diagnostics report (solver stages, sim event counters) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("n must be >= 1")
	}
	if *reps < 2 {
		return fmt.Errorf("reps must be >= 2 (confidence intervals need replication)")
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0")
	}
	diag, o := newDiag(*diagPath)
	rep, err := check.Run(context.Background(), check.Options{
		N: *n, Seed: *seed, Tol: *tol, Reps: *reps, Workers: *workers, Observer: o,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(out, rep.Summary())
		for _, v := range rep.Violations {
			fmt.Fprintf(out, "violation: %s\n", v)
		}
		for _, d := range rep.Disagreements {
			fmt.Fprintf(out, "disagreement: %s %s analytic %.6g vs sim %.6g (diff %.3g, allowed %.3g)\n",
				d.Case, d.Metric, d.Analytic, d.Sim, d.Diff, d.Allowed)
		}
	}
	if err := diag.WriteReport(*diagPath, out); err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("conformance check failed: %d violations, %d disagreements",
			len(rep.Violations), len(rep.Disagreements))
	}
	return nil
}
