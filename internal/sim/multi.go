package sim

import (
	"errors"
	"fmt"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/rng"
)

// ErrMultiConfig reports an invalid two-priority simulation configuration.
var ErrMultiConfig = errors.New("sim: invalid multiclass configuration")

// MultiConfig parameterizes a two-priority background simulation, mirroring
// multiclass.Config: class 1 is served before class 2 whenever the idle wait
// expires.
type MultiConfig struct {
	// Arrival is the foreground arrival process.
	Arrival *arrival.MAP
	// ServiceRate is the exponential service rate for all classes.
	ServiceRate float64
	// BG1Prob and BG2Prob are the per-completion spawn probabilities.
	BG1Prob, BG2Prob float64
	// BG1Buffer and BG2Buffer are the per-class buffer capacities.
	BG1Buffer, BG2Buffer int
	// IdleRate is the idle-wait rate.
	IdleRate float64
	// IdlePolicy selects per-job or per-period re-arming (zero: per-job).
	IdlePolicy core.IdleWaitPolicy

	// Seed, WarmupTime, MeasureTime as in Config.
	Seed        int64
	WarmupTime  float64
	MeasureTime float64
}

func (c MultiConfig) withDefaults() MultiConfig {
	if c.IdlePolicy == 0 {
		c.IdlePolicy = core.IdleWaitPerJob
	}
	return c
}

func (c MultiConfig) validate() error {
	switch {
	case c.Arrival == nil:
		return core.NewValidationError(ErrMultiConfig, "Arrival", "nil arrival process")
	case c.ServiceRate <= 0:
		return core.NewValidationError(ErrMultiConfig, "ServiceRate", "service rate %g must be positive", c.ServiceRate)
	case c.BG1Prob < 0 || c.BG2Prob < 0 || c.BG1Prob+c.BG2Prob > 1:
		return core.NewValidationError(ErrMultiConfig, "BG1Prob", "spawn probabilities (%g, %g) must be nonnegative with sum <= 1", c.BG1Prob, c.BG2Prob)
	case c.BG1Buffer < 0 || c.BG2Buffer < 0:
		return core.NewValidationError(ErrMultiConfig, "BG1Buffer", "negative buffer")
	case (c.BG1Prob > 0 && c.BG1Buffer > 0 || c.BG2Prob > 0 && c.BG2Buffer > 0) && c.IdleRate <= 0:
		return core.NewValidationError(ErrMultiConfig, "IdleRate", "idle rate %g must be positive when background work exists", c.IdleRate)
	case c.MeasureTime <= 0:
		return core.NewValidationError(ErrMultiConfig, "MeasureTime", "measurement window %g must be positive", c.MeasureTime)
	case c.WarmupTime < 0:
		return core.NewValidationError(ErrMultiConfig, "WarmupTime", "negative warmup")
	}
	return nil
}

// MultiCounters are raw event counts of a two-priority run.
type MultiCounters struct {
	ArrivalsFG   int64
	CompletedFG  int64
	DelayedFG    int64
	GeneratedBG1 int64
	GeneratedBG2 int64
	DroppedBG1   int64
	DroppedBG2   int64
	CompletedBG1 int64
	CompletedBG2 int64
	Events       int64 // total events processed inside the window
}

// MultiResult holds measured estimates of a two-priority run. The metric
// names mirror multiclass.Metrics; RespTimeFG and its percentiles are
// simulator extras the analytic model does not expose.
type MultiResult struct {
	QLenFG, QLenBG1, QLenBG2     float64
	CompBG1, CompBG2, WaitPFG    float64
	UtilFG, UtilBG1, UtilBG2     float64
	ProbIdleWait, ProbEmpty      float64
	ThroughputBG1, ThroughputBG2 float64
	// RespTimeFG is the mean foreground response time; RespTimeFGP95 and
	// RespTimeFGP99 are streaming P² percentile estimates (0 when no FG job
	// completed in-window).
	RespTimeFG    float64
	RespTimeFGP95 float64
	RespTimeFGP99 float64
	Counters      MultiCounters
	SimTime       float64
}

type multiState int

const (
	mIdle multiState = iota
	mIdleWait
	mServingFG
	mServingBG1
	mServingBG2
)

// multiRunState is the flattened event-loop state of the two-priority
// simulator — the same machinery as runState (inline xoshiro256** stream,
// branch-based window clipping, ring-buffer FIFO), with per-class background
// queues instead of one.
type multiRunState struct {
	rng       rng.Rand
	sampler   *arrival.Sampler
	svcScale  float64 // 1/ServiceRate
	idleScale float64 // 1/IdleRate
	perPeriod bool

	now        float64
	nextArr    float64
	serviceEnd float64
	idleExpiry float64
	state      multiState
	fgQueue    int
	bg1, bg2   int // waiting per class (excluding in service)
	fgTimes    fifo

	measStart float64
	measEnd   float64
	fgArea    float64
	bg1Area   float64
	bg2Area   float64
	utilFG    float64
	utilB1    float64
	utilB2    float64
	idleW     float64
	emptyT    float64
	respSum   float64
	p95, p99  p2Quantile
	counters  MultiCounters
}

func (rs *multiRunState) accumulate(next float64) {
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
	nf, n1, n2 := float64(rs.fgQueue), float64(rs.bg1), float64(rs.bg2)
	switch rs.state {
	case mServingFG:
		nf++
		rs.utilFG += span
	case mServingBG1:
		n1++
		rs.utilB1 += span
	case mServingBG2:
		n2++
		rs.utilB2 += span
	case mIdleWait:
		rs.idleW += span
	default:
		rs.emptyT += span
	}
	rs.fgArea += nf * span
	rs.bg1Area += n1 * span
	rs.bg2Area += n2 * span
}

func (rs *multiRunState) startFG() {
	rs.fgQueue--
	rs.state = mServingFG
	rs.serviceEnd = rs.now + rs.rng.ExpFloat64()*rs.svcScale
	rs.idleExpiry = inf
}

func (rs *multiRunState) startBG() {
	if rs.bg1 > 0 {
		rs.bg1--
		rs.state = mServingBG1
	} else {
		rs.bg2--
		rs.state = mServingBG2
	}
	rs.serviceEnd = rs.now + rs.rng.ExpFloat64()*rs.svcScale
	rs.idleExpiry = inf
}

func (rs *multiRunState) armIdleOrRest() {
	rs.serviceEnd = inf
	if rs.bg1+rs.bg2 > 0 {
		rs.state = mIdleWait
		rs.idleExpiry = rs.now + rs.rng.ExpFloat64()*rs.idleScale
	} else {
		rs.state = mIdle
		rs.idleExpiry = inf
	}
}

// RunMulti simulates the two-priority system.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Stream seeds derive from cfg.Seed via SplitMix64 exactly as in Run
	// (see seed.go). The first three stream indices belong to the
	// single-class simulator; skipping them keeps a RunMulti at some seed
	// from sharing randomness with a Run at the same seed (the two are
	// compared against each other in cross-checks).
	seeds := newSeedStream(cfg.Seed)
	for i := 0; i < 3; i++ {
		seeds.next()
	}
	var rs multiRunState
	rs.rng = rng.New(seeds.next())
	rs.sampler = arrival.NewSampler(cfg.Arrival, seeds.next())
	rs.svcScale = 1 / cfg.ServiceRate
	rs.idleScale = 1 / cfg.IdleRate
	rs.perPeriod = cfg.IdlePolicy == core.IdleWaitPerPeriod
	rs.state = mIdle
	rs.nextArr = rs.sampler.Next()
	rs.serviceEnd = inf
	rs.idleExpiry = inf
	rs.fgTimes.init(fifoInitialCap)
	rs.measStart = cfg.WarmupTime
	rs.measEnd = cfg.WarmupTime + cfg.MeasureTime
	rs.p95.initP2(0.95)
	rs.p99.initP2(0.99)

	for rs.now < rs.measEnd {
		// Same tie-break as Run: arrival, then service completion, then
		// idle expiry at equal timestamps (see nextEvent).
		next, kind := nextEvent(rs.nextArr, rs.serviceEnd, rs.idleExpiry, inf)
		rs.accumulate(next)
		rs.now = next
		in := next >= rs.measStart && next < rs.measEnd
		if in {
			rs.counters.Events++
		}
		switch kind {
		case evArrival:
			if in {
				rs.counters.ArrivalsFG++
				if rs.state == mServingBG1 || rs.state == mServingBG2 {
					rs.counters.DelayedFG++
				}
			}
			rs.fgQueue++
			rs.fgTimes.push(next)
			if rs.state == mIdle || rs.state == mIdleWait {
				rs.startFG()
			}
			rs.nextArr = next + rs.sampler.Next()

		case evService:
			switch rs.state {
			case mServingFG:
				t0 := rs.fgTimes.pop()
				if in {
					rs.counters.CompletedFG++
					resp := next - t0
					rs.respSum += resp
					// Same P² decimation as Run (see p2Stride).
					if rs.counters.CompletedFG&(p2Stride-1) == 1 {
						rs.p95.add(resp)
						rs.p99.add(resp)
					}
				}
				rs.spawnBG(in, cfg)
				if rs.fgQueue > 0 {
					rs.startFG()
				} else {
					rs.armIdleOrRest()
				}
			case mServingBG1, mServingBG2:
				if in {
					if rs.state == mServingBG1 {
						rs.counters.CompletedBG1++
					} else {
						rs.counters.CompletedBG2++
					}
				}
				if rs.fgQueue > 0 {
					rs.startFG()
				} else if rs.bg1+rs.bg2 > 0 && rs.perPeriod {
					rs.startBG()
				} else {
					rs.armIdleOrRest()
				}
			default:
				return nil, fmt.Errorf("sim: multiclass completion in state %d", rs.state)
			}

		default:
			if rs.state != mIdleWait || rs.bg1+rs.bg2 == 0 {
				return nil, fmt.Errorf("sim: multiclass idle expiry in state %d", rs.state)
			}
			rs.startBG()
		}
	}

	res := &MultiResult{Counters: rs.counters}
	t := cfg.MeasureTime
	res.SimTime = t
	res.QLenFG = rs.fgArea / t
	res.QLenBG1 = rs.bg1Area / t
	res.QLenBG2 = rs.bg2Area / t
	res.UtilFG = rs.utilFG / t
	res.UtilBG1 = rs.utilB1 / t
	res.UtilBG2 = rs.utilB2 / t
	res.ProbIdleWait = rs.idleW / t
	res.ProbEmpty = rs.emptyT / t
	res.ThroughputBG1 = float64(res.Counters.CompletedBG1) / t
	res.ThroughputBG2 = float64(res.Counters.CompletedBG2) / t
	res.CompBG1, res.CompBG2 = 1, 1
	if g := res.Counters.GeneratedBG1; g > 0 {
		res.CompBG1 = float64(g-res.Counters.DroppedBG1) / float64(g)
	}
	if g := res.Counters.GeneratedBG2; g > 0 {
		res.CompBG2 = float64(g-res.Counters.DroppedBG2) / float64(g)
	}
	if res.Counters.ArrivalsFG > 0 {
		res.WaitPFG = float64(res.Counters.DelayedFG) / float64(res.Counters.ArrivalsFG)
	}
	if res.Counters.CompletedFG > 0 {
		res.RespTimeFG = rs.respSum / float64(res.Counters.CompletedFG)
		res.RespTimeFGP95 = rs.p95.Value()
		res.RespTimeFGP99 = rs.p99.Value()
	}
	return res, nil
}

// spawnBG flips the class coin after a foreground completion and admits or
// drops the spawned job against its class buffer.
func (rs *multiRunState) spawnBG(in bool, cfg MultiConfig) {
	u := rs.rng.Float64()
	switch {
	case u < cfg.BG1Prob:
		if in {
			rs.counters.GeneratedBG1++
		}
		if rs.bg1 < cfg.BG1Buffer {
			rs.bg1++
		} else if in {
			rs.counters.DroppedBG1++
		}
	case u < cfg.BG1Prob+cfg.BG2Prob:
		if in {
			rs.counters.GeneratedBG2++
		}
		if rs.bg2 < cfg.BG2Buffer {
			rs.bg2++
		} else if in {
			rs.counters.DroppedBG2++
		}
	}
}
