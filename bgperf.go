// Package bgperf evaluates the performability of systems with background
// jobs. It is a from-scratch Go implementation of the analytic model of
// Zhang, Riska, Mi, Riedel and Smirni, "Evaluating the Performability of
// Systems with Background Jobs" (DSN 2006): a single non-preemptive server
// (a disk drive) serving foreground user requests under Markov-modulated
// (bursty, autocorrelated) arrivals, with best-effort background jobs —
// WRITE verification, scrubbing, and similar maintenance work — served
// during idle periods after an idle wait, from a finite buffer.
//
// The package answers the paper's design questions: how much background
// load can a storage system accept, how does the idle-wait length trade
// foreground latency against background completion, and how strongly does
// arrival dependence (ACF) change those answers.
//
//	email, _ := bgperf.EmailWorkload()          // trace-derived MMPP
//	arr, _ := bgperf.AtUtilization(email, 0.3)  // scale to 30% FG load
//	sol, _ := bgperf.Solve(bgperf.Config{
//		Arrival:     arr,
//		ServiceRate: bgperf.ServiceRatePerMs, // 6 ms disk service
//		BGProb:      0.3,                     // 30% of FG work spawns BG
//		BGBuffer:    5,
//		IdleRate:    bgperf.ServiceRatePerMs, // idle wait ≈ service time
//	})
//	fmt.Println(sol.QLenFG, sol.CompBG)
//
// The analytic engine (internal/qbd, internal/core) solves the model's
// quasi-birth-death Markov chain with the matrix-geometric method; an
// independent event simulator (Simulate) cross-validates it and covers
// semantics outside the chain, such as deterministic idle waits.
package bgperf

import (
	"io"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/mat"
	"bgperf/internal/phtype"
	"bgperf/internal/sim"
	"bgperf/internal/trace"
	"bgperf/internal/workload"
)

// Model types, re-exported from the analytic engine.
type (
	// Config parameterizes the foreground/background model.
	Config = core.Config
	// Metrics bundles the paper's steady-state metrics.
	Metrics = core.Metrics
	// Solution is a solved model with metric and distribution queries.
	Solution = core.Solution
	// Model is a validated, solvable model instance.
	Model = core.Model
	// IdleWaitPolicy selects idle-wait re-arming semantics.
	IdleWaitPolicy = core.IdleWaitPolicy
	// Kind classifies chain states by server condition.
	Kind = core.Kind
	// BGAdmission selects the background admission policy.
	BGAdmission = core.BGAdmission
)

// Arrival-process types.
type (
	// MAP is a Markovian Arrival Process (MMPP, IPP, Poisson, …).
	MAP = arrival.MAP
	// FitSpec targets an MMPP(2) moment-matching fit.
	FitSpec = arrival.FitSpec
)

// PHDist is a phase-type distribution, usable as a non-exponential service
// law via Config.Service (the paper's footnote 3 extension).
type PHDist = phtype.Dist

// Simulation types.
type (
	// SimConfig parameterizes the event simulator.
	SimConfig = sim.Config
	// SimResult holds simulated estimates with confidence intervals.
	SimResult = sim.Result
	// SimReplications aggregates independent simulation replications.
	SimReplications = sim.ReplicationResult
	// IdleDist selects the simulator's idle-wait distribution.
	IdleDist = sim.IdleDist
)

// Trace types.
type (
	// Trace is a synthetic or loaded I/O trace.
	Trace = trace.Trace
	// TraceStats summarizes a trace sample.
	TraceStats = trace.Stats
)

// Idle-wait policies and distributions.
const (
	IdleWaitPerJob    = core.IdleWaitPerJob
	IdleWaitPerPeriod = core.IdleWaitPerPeriod
	IdleExponential   = sim.IdleExponential
	IdleDeterministic = sim.IdleDeterministic
)

// Chain state kinds.
const (
	KindEmpty = core.KindEmpty
	KindFG    = core.KindFG
	KindBG    = core.KindBG
	KindIdle  = core.KindIdle
	KindBG2   = core.KindBG2
)

// Background admission policies (PR 10 scenario expansion): blind admission,
// a foreground-queue threshold gate, and deadline-bounded waiting with
// reneging.
const (
	AdmitAll           = core.AdmitAll
	AdmitUtilThreshold = core.AdmitUtilThreshold
	AdmitDeadline      = core.AdmitDeadline
)

// Paper service-process constants (Sec. 3.1): exponential service with a
// 6 ms mean.
const (
	MeanServiceTimeMs = workload.MeanServiceTimeMs
	ServiceRatePerMs  = workload.ServiceRatePerMs
)

// ParseIdleWaitPolicy maps "per-job" / "per-period" back to the policy
// constants (the inverse of IdleWaitPolicy.String).
func ParseIdleWaitPolicy(s string) (IdleWaitPolicy, error) { return core.ParseIdleWaitPolicy(s) }

// ParseIdleDist maps "exponential" / "deterministic" back to the simulator
// idle-wait distributions (the inverse of IdleDist.String).
func ParseIdleDist(s string) (IdleDist, error) { return sim.ParseIdleDist(s) }

// ParseKind maps "empty" / "fg-serving" / "bg-serving" / "idle-wait" back to
// the chain state kinds (the inverse of Kind.String).
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// ParseBGAdmission maps "all" / "util-threshold" / "deadline" back to the
// admission policy constants (the inverse of BGAdmission.String). The empty
// string means the default, AdmitAll.
func ParseBGAdmission(s string) (BGAdmission, error) { return core.ParseBGAdmission(s) }

// NewModel validates cfg and prepares the analytic chain. It accepts the
// package options for uniformity with Solve; model construction itself is
// instrumented through Solve's observer.
func NewModel(cfg Config, opts ...Option) (*Model, error) {
	o := apply(opts)
	if o.err != nil {
		return nil, o.err
	}
	if err := ctxErr(o.ctx); err != nil {
		return nil, err
	}
	return core.NewModel(cfg)
}

// Solve builds and solves the model in one call. With WithObserver it
// reports stage timings, the cyclic-reduction convergence trace, sp(R),
// and workspace pool statistics; without, it runs the zero-overhead fast
// path.
func Solve(cfg Config, opts ...Option) (*Solution, error) {
	o := apply(opts)
	if o.err != nil {
		return nil, o.err
	}
	if err := ctxErr(o.ctx); err != nil {
		return nil, err
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	return m.SolveObserved(o.observer)
}

// CacheKey returns a canonical, collision-resistant identity for a model
// configuration: the hex SHA-256 of a tagged binary encoding of the
// validated Config (defaults applied). Identical keys imply bit-identical
// Solve results, so the key is safe for memoizing solutions — it is the
// cache key used by the bgperfd solve cache. Invalid configurations return
// the same *ValidationError that NewModel would.
func CacheKey(cfg Config) (string, error) { return core.CacheKey(cfg) }

// Simulate runs the independent event simulator. WithContext cancels the
// event loop promptly; WithObserver collects the run's event counters.
func Simulate(cfg SimConfig, opts ...Option) (*SimResult, error) {
	o := apply(opts)
	if o.err != nil {
		return nil, o.err
	}
	return sim.RunOpts(o.ctx, cfg, o.observer)
}

// SimulateReplications runs WithReplications(n) independent replications of
// cfg (seeds cfg.Seed .. cfg.Seed+n-1; default 1) on a pool bounded by
// WithWorkers (default all cores) and aggregates mean metrics with 95%
// confidence half-widths. The aggregate is identical for every worker count.
// WithContext cancels the sweep; WithObserver tracks replication progress
// and per-run counters.
func SimulateReplications(cfg SimConfig, opts ...Option) (*SimReplications, error) {
	o := apply(opts)
	if o.err != nil {
		return nil, o.err
	}
	return sim.RunReplicationsOpts(o.ctx, cfg, o.reps, o.workers, o.observer)
}

// NewMAP builds a MAP from its (D0, D1) description given as dense row
// slices.
func NewMAP(d0, d1 [][]float64) (*MAP, error) {
	m0, err := matFromRows(d0)
	if err != nil {
		return nil, err
	}
	m1, err := matFromRows(d1)
	if err != nil {
		return nil, err
	}
	return arrival.New(m0, m1)
}

// Poisson returns a Poisson arrival process.
func Poisson(rate float64) (*MAP, error) { return arrival.Poisson(rate) }

// MMPP2 returns a two-state Markov-Modulated Poisson Process with the
// paper's (v1, v2, l1, l2) parameterization (Eq. 4).
func MMPP2(v1, v2, l1, l2 float64) (*MAP, error) { return arrival.MMPP2(v1, v2, l1, l2) }

// IPP returns an Interrupted Poisson Process (bursty but uncorrelated).
func IPP(lambdaOn, onToOff, offToOn float64) (*MAP, error) {
	return arrival.IPP(lambdaOn, onToOff, offToOn)
}

// MMPPGeneral returns an n-state Markov-Modulated Poisson Process: arrivals
// at rates[i] while the modulating CTMC (given as dense generator rows)
// sits in state i.
func MMPPGeneral(rates []float64, modulator [][]float64) (*MAP, error) {
	q, err := matFromRows(modulator)
	if err != nil {
		return nil, err
	}
	return arrival.MMPP(rates, q)
}

// FitMMPP2 fits an MMPP(2) to target descriptors by moment matching. With
// WithObserver it reports a FitDiag comparing the achieved rate, SCV, lag-1
// ACF, and ACF decay against the targets.
func FitMMPP2(spec FitSpec, opts ...Option) (*MAP, error) {
	o := apply(opts)
	if o.err != nil {
		return nil, o.err
	}
	m, err := arrival.FitMMPP2(spec)
	if err != nil {
		return nil, err
	}
	if o.observer != nil {
		o.observer.FitDone(FitDiag{
			TargetRate: spec.Rate, TargetSCV: spec.SCV,
			TargetACF1: spec.ACF1, TargetDecay: spec.Decay,
			Rate: m.Rate(), SCV: m.SCV(), ACF1: m.ACF(1), Decay: m.ACFDecay(),
		})
	}
	return m, nil
}

// PHErlang returns the Erlang-k phase-type distribution (SCV = 1/k).
func PHErlang(k int, stageRate float64) (*PHDist, error) { return phtype.Erlang(k, stageRate) }

// PHHyperexponential returns a mixture-of-exponentials phase-type
// distribution (SCV > 1).
func PHHyperexponential(probs, rates []float64) (*PHDist, error) {
	return phtype.Hyperexponential(probs, rates)
}

// PHFitTwoMoment returns a phase-type distribution matching the given mean
// and SCV (Erlang for SCV < 1, exponential at 1, balanced H2 above).
func PHFitTwoMoment(mean, scv float64) (*PHDist, error) { return phtype.FitTwoMoment(mean, scv) }

// PHCoxian returns the Coxian distribution with the given per-stage rates
// and continuation probabilities.
func PHCoxian(rates, cont []float64) (*PHDist, error) { return phtype.Coxian(rates, cont) }

// ServiceMAPFromPH rewrites a phase-type law as a renewal service MAP
// (D0 = T, D1 = t·β), the starting point for building *correlated* service
// processes for Config.ServiceMAP.
func ServiceMAPFromPH(d *PHDist) (*MAP, error) {
	t := d.T()
	exit := d.ExitRates()
	beta := d.Beta()
	n := d.Order()
	d1 := make([][]float64, n)
	for i := range d1 {
		d1[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			d1[i][j] = exit[i] * beta[j]
		}
	}
	m1, err := matFromRows(d1)
	if err != nil {
		return nil, err
	}
	return arrival.New(t, m1)
}

// EmailWorkload returns the paper's E-mail server MMPP (high ACF).
func EmailWorkload() (*MAP, error) { return workload.Email() }

// SoftwareDevelopmentWorkload returns the paper's Software Development MMPP
// (low ACF).
func SoftwareDevelopmentWorkload() (*MAP, error) { return workload.SoftwareDevelopment() }

// UserAccountsWorkload returns the paper's User Accounts MMPP (lightly
// loaded, strong ACF).
func UserAccountsWorkload() (*MAP, error) { return workload.UserAccounts() }

// AtUtilization rescales a workload to a target foreground utilization at
// the paper's 6 ms service time.
func AtUtilization(m *MAP, util float64) (*MAP, error) { return workload.AtUtilization(m, util) }

// GenerateTrace samples n inter-arrival times (and exponential service
// times at serviceRate) from the MAP.
func GenerateTrace(m *MAP, n int, seed int64, serviceRate float64) *Trace {
	return trace.GenerateWithService(m, n, seed, serviceRate)
}

// FitWorkloadFromTrace fits a 2-state MMPP to a measured trace (the paper's
// Sec. 3.1 workflow: match the sample inter-arrival mean, CV, and ACF
// shape).
func FitWorkloadFromTrace(tr *Trace) (*MAP, error) { return workload.FromTrace(tr) }

// ReadTraceCSV parses a trace written by Trace.WriteCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// matFromRows converts row slices into the internal dense matrix type.
func matFromRows(rows [][]float64) (*mat.Matrix, error) {
	return mat.FromRows(rows)
}
