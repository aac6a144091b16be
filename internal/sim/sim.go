// Package sim provides an event-driven simulator of the foreground/background
// storage system of the paper — the same system package core solves
// analytically, implemented independently so the two act as cross-checks.
// The simulator additionally supports semantics the Markov chain cannot
// express, such as deterministic idle waits.
//
// The event loop is built for throughput (millions of events per second):
// all run state lives in a flat runState struct (no closure captures), the
// random streams are inline xoshiro256** generators with ziggurat
// exponential sampling (internal/rng), window clipping is branch-based with
// a monotone batch cursor, and the FG response-time FIFO is a reusable ring
// buffer — so steady-state event processing performs no heap allocations.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/phtype"
	"bgperf/internal/rng"
)

// ErrConfig reports an invalid simulation configuration.
var ErrConfig = errors.New("sim: invalid configuration")

// IdleDist selects the idle-wait distribution.
type IdleDist int

const (
	// IdleExponential draws idle waits from an exponential distribution
	// with rate IdleRate — the paper's model and the analytic chain.
	IdleExponential IdleDist = iota + 1
	// IdleDeterministic uses a constant idle wait of 1/IdleRate — a policy
	// real disk firmware often uses, outside the Markov chain's reach.
	IdleDeterministic
)

func (d IdleDist) String() string {
	switch d {
	case IdleExponential:
		return "exponential"
	case IdleDeterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("IdleDist(%d)", int(d))
	}
}

// ParseIdleDist is the inverse of IdleDist.String.
func ParseIdleDist(s string) (IdleDist, error) {
	switch s {
	case "exponential":
		return IdleExponential, nil
	case "deterministic":
		return IdleDeterministic, nil
	default:
		return 0, core.NewValidationError(ErrConfig, "IdleDist", "unknown idle-wait distribution %q (want exponential or deterministic)", s)
	}
}

// Config parameterizes a simulation run. The queueing semantics mirror
// core.Config exactly (single non-preemptive server, FCFS foreground,
// best-effort background after an idle wait, finite BG buffer with drops).
type Config struct {
	// Arrival is the FG arrival process.
	Arrival *arrival.MAP
	// ServiceRate is the exponential service rate µ for both job classes.
	// Leave it 0 when Service is set.
	ServiceRate float64
	// Service optionally replaces the exponential service law with a
	// phase-type distribution, mirroring core.Config.Service.
	Service *phtype.Dist
	// ServiceMAP optionally draws correlated service times from a MAP whose
	// phase persists across jobs (frozen while not serving), mirroring
	// core.Config.ServiceMAP. Mutually exclusive with ServiceRate/Service.
	ServiceMAP *arrival.MAP
	// BGProb is the probability a completing FG job generates a BG job.
	BGProb float64
	// BGBuffer is the BG buffer capacity X.
	BGBuffer int
	// BG2Prob and BG2Buffer describe a second, low-priority BG class,
	// mirroring core.Config.BG2Prob and core.Config.BG2Buffer: BGProb and
	// BGBuffer then describe class 1, which the server picks first whenever
	// it starts a BG service.
	BG2Prob   float64
	BG2Buffer int
	// IdleRate is the idle-wait rate α (mean wait 1/α). Leave it 0 when
	// IdleWait is set.
	IdleRate float64
	// IdleWait optionally replaces the exponential idle wait with a
	// phase-type distribution, mirroring core.Config.IdleWait. Incompatible
	// with IdleDeterministic.
	IdleWait *phtype.Dist
	// IdlePolicy selects per-job or per-period idle-wait re-arming
	// (zero value: per-job, matching core).
	IdlePolicy core.IdleWaitPolicy
	// IdleDist selects the idle-wait distribution (zero value:
	// exponential).
	IdleDist IdleDist
	// ModFactor is the capacity-modulation factor φ ∈ (0, 1], mirroring
	// core.Config.ModFactor: while any BG work is in the system the server
	// runs at rate φ·µ, so service draws are stretched by 1/φ. Zero means 1.
	ModFactor float64
	// BGAdmit selects the BG admission policy, mirroring
	// core.Config.BGAdmit (zero value: AdmitAll).
	BGAdmit core.BGAdmission
	// FGThreshold is the util-threshold K, mirroring
	// core.Config.FGThreshold.
	FGThreshold int
	// DeadlineRate is the renege rate δ of core.AdmitDeadline, mirroring
	// core.Config.DeadlineRate.
	DeadlineRate float64

	// Seed makes the run reproducible.
	Seed int64
	// WarmupTime is simulated time discarded before measurement.
	WarmupTime float64
	// MeasureTime is the simulated measurement window.
	MeasureTime float64
	// Batches is the number of batch-means segments for confidence
	// intervals (default 20).
	Batches int
}

// FromModel is the simulation of the analytic configuration m with the
// given seed and measurement windows: it copies every core.Config field
// into its same-named queueing field, so the simulator runs exactly the
// model the solver solves. It is the inverse of model.
func FromModel(m core.Config, seed int64, warmup, measure float64) Config {
	return Config{
		Arrival:      m.Arrival,
		ServiceRate:  m.ServiceRate,
		Service:      m.Service,
		ServiceMAP:   m.ServiceMAP,
		BGProb:       m.BGProb,
		BGBuffer:     m.BGBuffer,
		BG2Prob:      m.BG2Prob,
		BG2Buffer:    m.BG2Buffer,
		IdleRate:     m.IdleRate,
		IdleWait:     m.IdleWait,
		IdlePolicy:   m.IdlePolicy,
		ModFactor:    m.ModFactor,
		BGAdmit:      m.BGAdmit,
		FGThreshold:  m.FGThreshold,
		DeadlineRate: m.DeadlineRate,
		Seed:         seed,
		WarmupTime:   warmup,
		MeasureTime:  measure,
	}
}

// model projects the queueing fields onto core.Config, whose rules they
// share. It is the inverse of FromModel.
func (c Config) model() core.Config {
	return core.Config{
		Arrival:      c.Arrival,
		ServiceRate:  c.ServiceRate,
		Service:      c.Service,
		ServiceMAP:   c.ServiceMAP,
		BGProb:       c.BGProb,
		BGBuffer:     c.BGBuffer,
		BG2Prob:      c.BG2Prob,
		BG2Buffer:    c.BG2Buffer,
		IdleRate:     c.IdleRate,
		IdleWait:     c.IdleWait,
		IdlePolicy:   c.IdlePolicy,
		ModFactor:    c.ModFactor,
		BGAdmit:      c.BGAdmit,
		FGThreshold:  c.FGThreshold,
		DeadlineRate: c.DeadlineRate,
	}
}

// resolve applies the defaults and validates c. The queueing fields go
// through core.Config.Resolve, so the simulator accepts exactly the models
// the solver does; only the simulator's own fields (the idle-wait
// distribution, the windows, the batch count) are checked here. Errors are
// *core.ValidationError wrapping ErrConfig.
func (c Config) resolve() (Config, error) {
	m, err := c.model().Resolve()
	if err != nil {
		var verr *core.ValidationError
		if !errors.As(err, &verr) {
			return c, err
		}
		return c, core.NewValidationError(ErrConfig, verr.Field, "%s", verr.Reason)
	}
	c.IdlePolicy, c.ModFactor, c.BGAdmit = m.IdlePolicy, m.ModFactor, m.BGAdmit
	if c.IdleDist == 0 {
		c.IdleDist = IdleExponential
	}
	if c.Batches == 0 {
		c.Batches = 20
	}
	switch {
	case c.IdleWait != nil && c.IdleDist == IdleDeterministic:
		return c, core.NewValidationError(ErrConfig, "IdleDist", "IdleWait and IdleDeterministic are incompatible")
	case c.MeasureTime <= 0:
		return c, core.NewValidationError(ErrConfig, "MeasureTime", "measurement window %g must be positive", c.MeasureTime)
	case c.WarmupTime < 0:
		return c, core.NewValidationError(ErrConfig, "WarmupTime", "negative warmup")
	case c.Batches < 2:
		return c, core.NewValidationError(ErrConfig, "Batches", "need at least 2 batches")
	}
	return c, nil
}

// Counters are raw event counts over the measurement window. The BG counts
// are class 1's; the BG2 ones stay zero unless Config.BG2Prob > 0.
type Counters struct {
	ArrivalsFG      int64
	CompletedFG     int64
	DelayedFG       int64 // FG arrivals that found a BG job (either class) in service
	GeneratedBG     int64
	AdmittedBG      int64
	DroppedBG       int64
	CompletedBG     int64
	IdleExpirations int64 // idle-wait timers that expired and started BG service
	RenegedBG       int64 // admitted BG jobs whose deadline expired while waiting
	Events          int64 // total events processed inside the window

	GeneratedBG2, AdmittedBG2, DroppedBG2, CompletedBG2 int64
}

// Result holds the measured steady-state estimates.
type Result struct {
	// Metrics mirrors the analytic metric set; CompBG here is
	// admitted/generated and WaitPFG is delayed/arrivals.
	Metrics core.Metrics
	// RespTimeFGP95 is the streaming P² estimate of the 95th-percentile
	// foreground response time over the measurement window; RespTimeFGP99
	// likewise for the 99th. Both are 0 when no FG job completed in-window.
	RespTimeFGP95 float64
	RespTimeFGP99 float64
	// QLenFGHalf is the ±half-width of a ~95% batch-means confidence
	// interval on Metrics.QLenFG; QLenBGHalf likewise.
	QLenFGHalf float64
	QLenBGHalf float64
	// Counters are the raw counts behind the ratios.
	Counters Counters
	// SimTime is the measured (post-warmup) simulated time.
	SimTime float64
}

type serverState int

const (
	stateIdle     serverState = iota // nothing in service, no timer
	stateIdleWait                    // BG pending, idle-wait timer armed
	stateServingFG
	stateServingBG
	stateServingBG2 // a class-2 BG job in service
)

const inf = math.MaxFloat64

// eventKind identifies which timer fires next in the event loop.
type eventKind int

const (
	evArrival eventKind = iota
	evService
	evIdle
	evRenege
)

// nextEvent picks the earliest of the four pending timers, breaking ties in
// the fixed order arrival, then service completion, then idle expiry, then
// deadline renege (the strict < keeps the earlier-ranked candidate at equal
// timestamps). The order is part of the simulator's semantics — an arrival
// coinciding with a BG service completion is counted as delayed, and a
// renege racing any other event loses — and is pinned by
// TestEventTieBreakOrder.
func nextEvent(arr, svc, idle, renege float64) (float64, eventKind) {
	next, kind := arr, evArrival
	if svc < next {
		next, kind = svc, evService
	}
	if idle < next {
		next, kind = idle, evIdle
	}
	if renege < next {
		next, kind = renege, evRenege
	}
	return next, kind
}

// runState is the flattened per-run state of the event loop. Everything the
// hot path touches lives here as a plain field — no closures, no interface
// values — so the compiler keeps the loop free of pointer chasing and the
// steady state free of allocations.
type runState struct {
	// Random streams and samplers (rng is the event stream: service draws,
	// BG spawn coin flips, idle waits).
	rng        rng.Rand
	sampler    *arrival.Sampler
	svcSampler *arrival.Sampler // non-nil iff ServiceMAP is set
	svcPH      *phtype.Compiled // non-nil iff Service is set
	idlePH     *phtype.Compiled // non-nil iff IdleWait is set
	svcScale   float64          // 1/ServiceRate (exponential service)
	idleScale  float64          // 1/IdleRate (exponential or deterministic)
	idleDet    bool
	perPeriod  bool
	bgProb     float64
	bgBuffer   int
	bg2Prob    float64 // class-2 spawn probability (0: single-class model)
	bg2Buffer  int
	// Capacity modulation and smart admission (mirroring core). modFactor 1
	// keeps every hot-path branch below untaken, so the baseline event
	// stream is bit-identical to the pre-modulation simulator.
	modFactor    float64 // φ
	modInv       float64 // 1/φ: service-draw stretch while BG work is present
	admitUtil    bool    // util-threshold admission active
	fgThreshold  int     // K of the util-threshold policy
	deadlineRate float64 // δ of the deadline policy (0: no reneging)

	// Dynamic state.
	now        float64
	nextArr    float64
	serviceEnd float64
	idleExpiry float64
	nextRenege float64
	state      serverState
	fgQueue    int // waiting FG jobs (excluding in service)
	bgQueue    int // waiting class-1 BG jobs (excluding in service)
	bg2Queue   int // waiting class-2 BG jobs (excluding in service)
	fgTimes    fifo

	// Measurement window and accumulators.
	measStart float64
	measEnd   float64
	fgArea    float64 // ∫ FG-in-system dt
	bgArea    float64 // ∫ BG-in-system dt
	bg2Area   float64 // ∫ class-2-BG-in-system dt
	utilFG    float64
	utilBG    float64
	utilBG2   float64
	idleW     float64
	emptyT    float64
	respSum   float64
	p95, p99  p2Quantile
	counters  Counters

	// Batch-means attribution: a monotone cursor over batch segments.
	batchLen float64
	batchEnd float64 // end of the current batch (measEnd for the last)
	bi       int     // current batch index
	batchFG  []float64
	batchBG  []float64
}

// setup initializes rs from a validated configuration. Stream-seed
// consumption order (event RNG, arrival sampler, optional service MAP
// sampler) is part of the reproducibility contract — see seed.go.
func (rs *runState) setup(cfg Config) {
	seeds := newSeedStream(cfg.Seed)
	rs.rng = rng.New(seeds.next())
	rs.sampler = arrival.NewSampler(cfg.Arrival, seeds.next())
	if cfg.ServiceMAP != nil {
		rs.svcSampler = arrival.NewSampler(cfg.ServiceMAP, seeds.next())
	}
	if cfg.Service != nil {
		rs.svcPH = phtype.Compile(cfg.Service)
	}
	if cfg.IdleWait != nil {
		rs.idlePH = phtype.Compile(cfg.IdleWait)
	}
	rs.svcScale = 1 / cfg.ServiceRate
	rs.idleScale = 1 / cfg.IdleRate
	rs.idleDet = cfg.IdleDist == IdleDeterministic
	rs.perPeriod = cfg.IdlePolicy == core.IdleWaitPerPeriod
	rs.bgProb = cfg.BGProb
	rs.bgBuffer = cfg.BGBuffer
	rs.bg2Prob = cfg.BG2Prob
	rs.bg2Buffer = cfg.BG2Buffer
	rs.modFactor = cfg.ModFactor
	rs.modInv = 1 / cfg.ModFactor
	rs.admitUtil = cfg.BGAdmit == core.AdmitUtilThreshold
	rs.fgThreshold = cfg.FGThreshold
	rs.deadlineRate = cfg.DeadlineRate

	rs.state = stateIdle
	rs.nextArr = rs.sampler.Next()
	rs.serviceEnd = inf
	rs.idleExpiry = inf
	rs.nextRenege = inf
	rs.fgTimes.init(fifoInitialCap)

	rs.measStart = cfg.WarmupTime
	rs.measEnd = cfg.WarmupTime + cfg.MeasureTime
	rs.p95.initP2(0.95)
	rs.p99.initP2(0.99)

	rs.batchLen = cfg.MeasureTime / float64(cfg.Batches)
	rs.batchFG = make([]float64, cfg.Batches)
	rs.batchBG = make([]float64, cfg.Batches)
	rs.bi = 0
	rs.batchEnd = rs.batchBound(0)
}

// batchBound returns the end time of batch bi, with the last batch absorbing
// float round-off by ending exactly at measEnd.
func (rs *runState) batchBound(bi int) float64 {
	if bi >= len(rs.batchFG)-1 {
		return rs.measEnd
	}
	return rs.measStart + float64(bi+1)*rs.batchLen
}

func (rs *runState) drawService() float64 {
	switch {
	case rs.svcSampler != nil:
		// The MAP phase persists across calls: correlated services, frozen
		// while the server idles.
		return rs.svcSampler.Next()
	case rs.svcPH != nil:
		return rs.svcPH.Sample(&rs.rng)
	default:
		return rs.rng.ExpFloat64() * rs.svcScale
	}
}

func (rs *runState) idleWait() float64 {
	switch {
	case rs.idlePH != nil:
		return rs.idlePH.Sample(&rs.rng)
	case rs.idleDet:
		return rs.idleScale
	default:
		return rs.rng.ExpFloat64() * rs.idleScale
	}
}

// accumulate integrates the current state over (now, next) clipped to the
// measurement window, spreading queue-length area over batches. Clipping is
// branch-based (no math.Min/Max calls) and the common case — an interval
// fully inside the current batch — costs one comparison beyond the area
// updates.
func (rs *runState) accumulate(next float64) {
	lo, hi := rs.now, next
	if lo < rs.measStart {
		lo = rs.measStart
	}
	if hi > rs.measEnd {
		hi = rs.measEnd
	}
	if hi <= lo {
		return
	}
	span := hi - lo
	nf, nb, n2 := float64(rs.fgQueue), float64(rs.bgQueue), float64(rs.bg2Queue)
	switch rs.state {
	case stateServingFG:
		nf++
		rs.utilFG += span
	case stateServingBG:
		nb++
		rs.utilBG += span
	case stateServingBG2:
		n2++
		rs.utilBG2 += span
	case stateIdleWait:
		rs.idleW += span
	default:
		rs.emptyT += span
	}
	rs.fgArea += nf * span
	rs.bgArea += nb * span
	rs.bg2Area += n2 * span
	// Batch attribution: the cursor only moves forward because simulated
	// time is monotone, so each call either lands in the current batch
	// (fast path) or walks the cursor across whole batch segments.
	for hi > rs.batchEnd {
		seg := rs.batchEnd - lo
		rs.batchFG[rs.bi] += nf * seg
		rs.batchBG[rs.bi] += nb * seg
		lo = rs.batchEnd
		rs.bi++
		rs.batchEnd = rs.batchBound(rs.bi)
	}
	rs.batchFG[rs.bi] += nf * (hi - lo)
	rs.batchBG[rs.bi] += nb * (hi - lo)
}

// startFG begins a foreground service. BG population changes only at FG
// completion epochs and deadline reneges, so the modulation speed chosen
// here holds for the whole draw except the one renege-rescale case handled
// in the event loop; stretching the entire draw by 1/φ is therefore exact.
func (rs *runState) startFG() {
	rs.fgQueue--
	rs.state = stateServingFG
	d := rs.drawService()
	if rs.modFactor != 1 && rs.bgWaiting() {
		d *= rs.modInv
	}
	rs.serviceEnd = rs.now + d
	rs.idleExpiry = inf
}

// startBG begins a background service, picking a class-1 job whenever one
// is waiting and a class-2 job otherwise. The job itself keeps the system
// modulated (x ≥ 1) for the full draw, and reneges only shrink the waiting
// pool, so no rescale case exists here.
func (rs *runState) startBG() {
	if rs.bgQueue > 0 {
		rs.bgQueue--
		rs.state = stateServingBG
	} else {
		rs.bg2Queue--
		rs.state = stateServingBG2
	}
	d := rs.drawService()
	if rs.modFactor != 1 {
		d *= rs.modInv
	}
	rs.serviceEnd = rs.now + d
	rs.idleExpiry = inf
	rs.rearmRenege()
}

// rearmRenege redraws the pooled deadline timer after a change to the
// waiting-BG population: the minimum of w independent exponential deadlines
// with rate δ is exponential with rate w·δ, and memorylessness makes a fresh
// draw at every population change distribution-exact. Guarded on the policy
// so baseline runs consume no extra random numbers.
func (rs *runState) rearmRenege() {
	if rs.deadlineRate <= 0 {
		return
	}
	if rs.bgQueue > 0 {
		rs.nextRenege = rs.now + rs.rng.ExpFloat64()/(float64(rs.bgQueue)*rs.deadlineRate)
	} else {
		rs.nextRenege = inf
	}
}

// bgWaiting reports whether any BG job of either class is waiting.
func (rs *runState) bgWaiting() bool { return rs.bgQueue > 0 || rs.bg2Queue > 0 }

func (rs *runState) armIdleOrRest() {
	rs.serviceEnd = inf
	if rs.bgWaiting() {
		rs.state = stateIdleWait
		rs.idleExpiry = rs.now + rs.idleWait()
	} else {
		rs.state = stateIdle
		rs.idleExpiry = inf
	}
}

// Run simulates the system and returns measured metrics.
//
// Run is safe to call concurrently from multiple goroutines, including with
// the same Config value: every call owns its random streams, and the
// structures a Config references (arrival.MAP, phtype.Dist) are immutable.
// Use RunReplications to fan independent replications out over a worker
// pool and aggregate them.
func Run(cfg Config) (*Result, error) {
	return RunOpts(nil, cfg, nil)
}

// RunOpts is Run with an optional context for cancellation and an optional
// obs.Observer receiving the run's event counters (nil is valid for both and
// reverts to the plain fast path). Cancellation is cooperative: the event
// loop polls ctx every few thousand events, so a canceled simulation returns
// a context.Canceled-wrapped error within microseconds rather than finishing
// the measurement window.
func RunOpts(ctx context.Context, cfg Config, o obs.Observer) (*Result, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	// Every random stream of the run gets its own SplitMix64-derived seed
	// (see seed.go): replication studies map replication r to Seed + r, and
	// the avalanche mixer guarantees the event/arrival/service streams of
	// all replications stay pairwise distinct.
	var rs runState
	rs.setup(cfg)

	var events int64
	for rs.now < rs.measEnd {
		if events++; ctx != nil && events&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: canceled at t=%g: %w", rs.now, err)
			}
		}
		next, kind := nextEvent(rs.nextArr, rs.serviceEnd, rs.idleExpiry, rs.nextRenege)
		rs.accumulate(next)
		rs.now = next
		in := next >= rs.measStart && next < rs.measEnd
		if in {
			rs.counters.Events++
		}
		switch kind {
		case evArrival:
			// Foreground arrival.
			if in {
				rs.counters.ArrivalsFG++
				if rs.state == stateServingBG || rs.state == stateServingBG2 {
					rs.counters.DelayedFG++
				}
			}
			rs.fgQueue++
			rs.fgTimes.push(next)
			if rs.state == stateIdle || rs.state == stateIdleWait {
				rs.startFG()
			}
			rs.nextArr = next + rs.sampler.Next()

		case evService:
			switch rs.state {
			case stateServingFG:
				t0 := rs.fgTimes.pop()
				if in {
					rs.counters.CompletedFG++
					resp := next - t0
					rs.respSum += resp
					// The P² markers see every p2Stride-th completion:
					// systematic decimation of a stationary stream leaves
					// quantile estimates unbiased but caps the estimators'
					// share of the event budget.
					if rs.counters.CompletedFG&(p2Stride-1) == 1 {
						rs.p95.add(resp)
						rs.p99.add(resp)
					}
				}
				// One coin picks the spawned job's class: u < p for class
				// 1, p ≤ u < p+p2 for class 2 (never when p2 = 0).
				if u := rs.rng.Float64(); u < rs.bgProb {
					if in {
						rs.counters.GeneratedBG++
					}
					// Admission: buffer space always required; the
					// util-threshold policy additionally demands a
					// foreground backlog of at most K jobs (the queue left
					// behind by the completing job, i.e. core's yLeft).
					if rs.bgQueue < rs.bgBuffer && (!rs.admitUtil || rs.fgQueue <= rs.fgThreshold) {
						rs.bgQueue++
						rs.rearmRenege()
						if in {
							rs.counters.AdmittedBG++
						}
					} else if in {
						rs.counters.DroppedBG++
					}
				} else if u < rs.bgProb+rs.bg2Prob {
					if in {
						rs.counters.GeneratedBG2++
					}
					if rs.bg2Queue < rs.bg2Buffer {
						rs.bg2Queue++
						if in {
							rs.counters.AdmittedBG2++
						}
					} else if in {
						rs.counters.DroppedBG2++
					}
				}
				if rs.fgQueue > 0 {
					rs.startFG()
				} else {
					rs.armIdleOrRest()
				}
			case stateServingBG, stateServingBG2:
				if in {
					if rs.state == stateServingBG {
						rs.counters.CompletedBG++
					} else {
						rs.counters.CompletedBG2++
					}
				}
				if rs.fgQueue > 0 {
					rs.startFG()
				} else if rs.perPeriod && rs.bgWaiting() {
					rs.startBG()
				} else {
					rs.armIdleOrRest()
				}
			default:
				return nil, fmt.Errorf("sim: service completion in state %d", rs.state)
			}

		case evRenege:
			// A waiting BG job's deadline expired. The pooled timer fires at
			// rate bgQueue·δ, so any waiting job may be the one to leave;
			// they are exchangeable, so no identity bookkeeping is needed.
			if rs.deadlineRate <= 0 || rs.bgQueue == 0 {
				return nil, fmt.Errorf("sim: renege in state %d with %d BG", rs.state, rs.bgQueue)
			}
			rs.bgQueue--
			if in {
				rs.counters.RenegedBG++
			}
			rs.rearmRenege()
			switch {
			case rs.state == stateIdleWait && rs.bgQueue == 0:
				// The last waiting job left: disarm the idle timer.
				rs.state = stateIdle
				rs.idleExpiry = inf
			case rs.state == stateServingFG && rs.modFactor != 1 && rs.bgQueue == 0:
				// The last BG job left mid-FG-service: the server speeds
				// back up from φ·µ to µ, shrinking the remaining service
				// time by φ — exact for any service law, because the
				// remaining work is fixed and only the rate changes.
				rs.serviceEnd = rs.now + (rs.serviceEnd-rs.now)*rs.modFactor
			}

		default: // idle-wait expiry
			if rs.state != stateIdleWait || !rs.bgWaiting() {
				return nil, fmt.Errorf("sim: idle expiry in state %d with %d+%d BG", rs.state, rs.bgQueue, rs.bg2Queue)
			}
			if in {
				rs.counters.IdleExpirations++
			}
			rs.startBG()
		}
	}

	res := &Result{Counters: rs.counters}
	t := cfg.MeasureTime
	res.SimTime = t
	m := &res.Metrics
	m.QLenFG = rs.fgArea / t
	m.QLenBG = rs.bgArea / t
	m.UtilFG = rs.utilFG / t
	m.UtilBG = rs.utilBG / t
	m.ProbIdleWait = rs.idleW / t
	m.ProbEmpty = rs.emptyT / t
	m.ThroughputFG = float64(res.Counters.CompletedFG) / t
	m.ThroughputBG = float64(res.Counters.CompletedBG) / t
	m.GenRateBG = float64(res.Counters.GeneratedBG) / t
	m.DropRateBG = float64(res.Counters.DroppedBG) / t
	if res.Counters.GeneratedBG > 0 {
		m.CompBG = float64(res.Counters.AdmittedBG) / float64(res.Counters.GeneratedBG)
	} else {
		m.CompBG = 1
	}
	if res.Counters.ArrivalsFG > 0 {
		m.WaitPFG = float64(res.Counters.DelayedFG) / float64(res.Counters.ArrivalsFG)
	}
	if res.Counters.CompletedFG > 0 {
		m.RespTimeFG = rs.respSum / float64(res.Counters.CompletedFG)
		res.RespTimeFGP95 = rs.p95.Value()
		res.RespTimeFGP99 = rs.p99.Value()
	}
	if res.Counters.AdmittedBG > 0 {
		// Little's law over the BG population: mean sojourn of admitted jobs.
		m.RespTimeBG = rs.bgArea / float64(res.Counters.AdmittedBG)
		m.DeadlineMissBG = float64(res.Counters.RenegedBG) / float64(res.Counters.AdmittedBG)
	}
	if cfg.BG2Prob > 0 {
		c := res.Counters
		m.BG2 = &core.ClassMetrics{
			QLen:       rs.bg2Area / t,
			Comp:       1,
			Util:       rs.utilBG2 / t,
			Throughput: float64(c.CompletedBG2) / t,
			GenRate:    float64(c.GeneratedBG2) / t,
			DropRate:   float64(c.DroppedBG2) / t,
		}
		if c.GeneratedBG2 > 0 {
			m.BG2.Comp = float64(c.AdmittedBG2) / float64(c.GeneratedBG2)
		}
		if c.AdmittedBG2 > 0 {
			m.BG2.RespTime = rs.bg2Area / float64(c.AdmittedBG2)
		}
	}

	res.QLenFGHalf = batchHalfWidth(rs.batchFG, rs.batchLen)
	res.QLenBGHalf = batchHalfWidth(rs.batchBG, rs.batchLen)
	if o != nil {
		c := res.Counters
		o.SimRun(obs.SimCounters{
			ArrivalsFG: c.ArrivalsFG, CompletedFG: c.CompletedFG,
			DelayedFG: c.DelayedFG, GeneratedBG: c.GeneratedBG,
			AdmittedBG: c.AdmittedBG, DroppedBG: c.DroppedBG,
			CompletedBG: c.CompletedBG, IdleExpirations: c.IdleExpirations,
			RenegedBG: c.RenegedBG, Events: c.Events,
		})
	}
	return res, nil
}

// batchHalfWidth returns the ~95% half-width of the batch-means estimator
// (normal critical value; adequate for ≥ 20 batches).
func batchHalfWidth(batchAreas []float64, batchLen float64) float64 {
	n := float64(len(batchAreas))
	var mean float64
	for _, a := range batchAreas {
		mean += a / batchLen
	}
	mean /= n
	var ss float64
	for _, a := range batchAreas {
		d := a/batchLen - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	return 1.96 * sd / math.Sqrt(n)
}
