package sim

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/par"
)

// KeepReplicationsMax is the largest replication count for which
// RunReplications retains the full per-replication Results (counters, batch
// half-widths) in ReplicationResult.Replications. Beyond it only the compact
// RepMetrics rows are kept, so the memory of a replication study is bounded
// by ~100 bytes per replication regardless of scale.
const KeepReplicationsMax = 64

// ReplicationResult aggregates independent simulation replications of one
// configuration: the across-replication mean of every metric plus ~95%
// confidence half-widths on the headline queue lengths and the foreground
// response time.
type ReplicationResult struct {
	// Mean holds the arithmetic mean of each metric across replications.
	Mean core.Metrics `json:"mean"`
	// RespTimeFGP95 and RespTimeFGP99 are across-replication means of the
	// per-replication streaming percentile estimates (see Result).
	RespTimeFGP95 float64 `json:"respTimeFGP95"`
	RespTimeFGP99 float64 `json:"respTimeFGP99"`
	// Reps is the number of replications aggregated.
	Reps int `json:"reps"`
	// QLenFGHalf, QLenBGHalf, and RespTimeFGHalf are ±half-widths of ~95%
	// confidence intervals. With a single replication they fall back to that
	// run's batch-means half-widths (zero for RespTimeFGHalf); with two or
	// more they are Student-t intervals over the per-replication means.
	QLenFGHalf     float64 `json:"qlenFGHalf"`
	QLenBGHalf     float64 `json:"qlenBGHalf"`
	RespTimeFGHalf float64 `json:"respTimeFGHalf"`
	// RepMetrics holds the per-replication metric rows in seed order —
	// compact (no counters or batch detail) and always populated, so
	// dispersion diagnostics work at any replication count. Excluded from
	// JSON output to keep it compact.
	RepMetrics []core.Metrics `json:"-"`
	// Replications are the underlying full per-replication results, in seed
	// order. Populated only when Reps <= KeepReplicationsMax; large studies
	// keep just RepMetrics. Excluded from JSON output.
	Replications []*Result `json:"-"`
}

// RunReplications simulates reps independent replications of cfg across a
// bounded pool of at most workers goroutines (0: all cores) and aggregates
// them. Replication r runs with seed cfg.Seed + r, so replication 0
// reproduces Run(cfg) exactly and the aggregate is bit-identical for every
// worker count. Within each replication the event, arrival, and service
// random streams are derived from the replication seed through SplitMix64
// (see seed.go), which keeps every stream of every replication pairwise
// distinct — consecutive-integer replication seeds cannot collide into each
// other's streams.
func RunReplications(cfg Config, reps, workers int) (*ReplicationResult, error) {
	return RunReplicationsOpts(nil, cfg, reps, workers, nil)
}

// RunReplicationsOpts is RunReplications with an optional context for
// cancellation and an optional obs.Observer receiving per-run event counters
// and replication progress (nil is valid for both). Cancellation stops
// unstarted replications immediately and aborts in-flight ones at their next
// event-loop poll, returning a context.Canceled-wrapped error.
func RunReplicationsOpts(ctx context.Context, cfg Config, reps, workers int, o obs.Observer) (*ReplicationResult, error) {
	if reps < 1 {
		return nil, core.NewValidationError(ErrConfig, "Replications", "need at least 1 replication, got %d", reps)
	}
	agg := &ReplicationResult{Reps: reps, RepMetrics: make([]core.Metrics, reps)}
	keep := reps <= KeepReplicationsMax
	if keep {
		agg.Replications = make([]*Result, reps)
	}
	// Per-replication percentile estimates, aggregated after the fan-out in
	// seed order so the result is bit-identical for every worker count.
	p95s := make([]float64, reps)
	p99s := make([]float64, reps)
	var done atomic.Int64
	err := par.ForCtx(ctx, workers, reps, func(r int) error {
		repCfg := cfg
		repCfg.Seed = cfg.Seed + int64(r)
		res, err := RunOpts(ctx, repCfg, o)
		if err != nil {
			return fmt.Errorf("replication %d (seed %d): %w", r, repCfg.Seed, err)
		}
		agg.RepMetrics[r] = res.Metrics
		p95s[r], p99s[r] = res.RespTimeFGP95, res.RespTimeFGP99
		if keep {
			agg.Replications[r] = res
		}
		if o != nil {
			o.ReplicationDone(int(done.Add(1)), reps)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r := range agg.RepMetrics {
		addMetrics(&agg.Mean, agg.RepMetrics[r])
		agg.RespTimeFGP95 += p95s[r]
		agg.RespTimeFGP99 += p99s[r]
	}
	scaleMetrics(&agg.Mean, 1/float64(reps))
	agg.RespTimeFGP95 /= float64(reps)
	agg.RespTimeFGP99 /= float64(reps)
	if reps == 1 {
		agg.QLenFGHalf = agg.Replications[0].QLenFGHalf
		agg.QLenBGHalf = agg.Replications[0].QLenBGHalf
		return agg, nil
	}
	agg.QLenFGHalf = HalfWidth95(agg.RepMetrics, func(m *core.Metrics) float64 { return m.QLenFG })
	agg.QLenBGHalf = HalfWidth95(agg.RepMetrics, func(m *core.Metrics) float64 { return m.QLenBG })
	agg.RespTimeFGHalf = HalfWidth95(agg.RepMetrics, func(m *core.Metrics) float64 { return m.RespTimeFG })
	return agg, nil
}

// addMetrics accumulates src into dst field by field.
func addMetrics(dst *core.Metrics, src core.Metrics) {
	dst.QLenFG += src.QLenFG
	dst.QLenBG += src.QLenBG
	dst.CompBG += src.CompBG
	dst.WaitPFG += src.WaitPFG
	dst.UtilFG += src.UtilFG
	dst.UtilBG += src.UtilBG
	dst.ProbIdleWait += src.ProbIdleWait
	dst.ProbEmpty += src.ProbEmpty
	dst.ThroughputFG += src.ThroughputFG
	dst.ThroughputBG += src.ThroughputBG
	dst.GenRateBG += src.GenRateBG
	dst.DropRateBG += src.DropRateBG
	dst.RespTimeFG += src.RespTimeFG
	dst.RespTimeBG += src.RespTimeBG
	dst.DeadlineMissBG += src.DeadlineMissBG
	if src.BG2 != nil {
		if dst.BG2 == nil {
			dst.BG2 = &core.ClassMetrics{}
		}
		c, s := dst.BG2, src.BG2
		c.QLen += s.QLen
		c.Comp += s.Comp
		c.Util += s.Util
		c.Throughput += s.Throughput
		c.GenRate += s.GenRate
		c.DropRate += s.DropRate
		c.RespTime += s.RespTime
	}
}

// scaleMetrics multiplies every field of m by c.
func scaleMetrics(m *core.Metrics, c float64) {
	m.QLenFG *= c
	m.QLenBG *= c
	m.CompBG *= c
	m.WaitPFG *= c
	m.UtilFG *= c
	m.UtilBG *= c
	m.ProbIdleWait *= c
	m.ProbEmpty *= c
	m.ThroughputFG *= c
	m.ThroughputBG *= c
	m.GenRateBG *= c
	m.DropRateBG *= c
	m.RespTimeFG *= c
	m.RespTimeBG *= c
	m.DeadlineMissBG *= c
	if b := m.BG2; b != nil {
		b.QLen *= c
		b.Comp *= c
		b.Util *= c
		b.Throughput *= c
		b.GenRate *= c
		b.DropRate *= c
		b.RespTime *= c
	}
}

// t95 holds two-sided 95% Student-t critical values for 1..30 degrees of
// freedom; beyond that the normal value 1.96 is close enough.
var t95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCritical95(df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if df <= len(t95) {
		return t95[df-1]
	}
	return 1.96
}

// HalfWidth95 returns the ±half-width of a 95% Student-t confidence interval
// for the mean of value(m) across the replication metric rows. It needs at
// least two rows; with fewer the result is NaN.
func HalfWidth95(rows []core.Metrics, value func(*core.Metrics) float64) float64 {
	n := float64(len(rows))
	var mean float64
	for i := range rows {
		mean += value(&rows[i])
	}
	mean /= n
	var ss float64
	for i := range rows {
		d := value(&rows[i]) - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	return tCritical95(len(rows)-1) * sd / math.Sqrt(n)
}
