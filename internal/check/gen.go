package check

import (
	"fmt"
	"math"
	"math/rand"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
)

// Case is one generated conformance configuration: the analytic config plus
// a compact label for reports.
type Case struct {
	// Name encodes the generation index and headline parameters.
	Name string
	// Cfg is the model configuration, valid by construction.
	Cfg core.Config
}

// Generator draws random valid model configurations from a seeded stream.
// The parameter ranges are deliberately moderate — offered load in
// [0.1, 0.6], buffers up to 6, modulation fast enough that a simulation
// window of a few 10^4 time units cycles every arrival phase many times —
// so that replicated simulations of each case converge tightly enough for
// CI-calibrated agreement checks. The generator is deterministic in its
// seed: the same seed yields the same case sequence on every platform.
type Generator struct {
	rng *rand.Rand
	n   int
}

// NewGenerator returns a generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// uniform returns a sample of U[lo, hi].
func (g *Generator) uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.rng.Float64()
}

// Next draws the next configuration. The service rate is fixed at µ = 1
// (time is measured in mean service times, without loss of generality);
// arrival processes are Poisson (1 in 8) or 2-state MMPPs rescaled to the
// target utilization, with burst ratios up to 8 and squared coefficients of
// variation moderate enough for stable simulation estimates.
func (g *Generator) Next() Case {
	idx := g.n
	g.n++

	util := g.uniform(0.10, 0.60)
	var (
		arr  *arrival.MAP
		err  error
		kind string
	)
	if g.rng.Intn(8) == 0 {
		arr, err = arrival.Poisson(util)
		kind = "poisson"
	} else {
		// Burstiness: per-state rates with ratio up to 8, modulation rates
		// in [0.05, 0.6] so a 3·10^4-unit window sees >1500 phase flips.
		ratio := g.uniform(1, 8)
		v1 := g.uniform(0.05, 0.6)
		v2 := g.uniform(0.05, 0.6)
		arr, err = arrival.MMPP2(v1, v2, ratio, 1)
		if err == nil {
			arr, err = arr.WithRate(util)
		}
		kind = "mmpp2"
	}
	if err != nil {
		// Unreachable for the ranges above; fail loudly rather than skip.
		panic(fmt.Sprintf("check: generator produced invalid arrival process: %v", err))
	}

	// p = 0 in one case out of 8 keeps the degenerate MMPP/M/1 branch in
	// every conformance run.
	p := 0.0
	if g.rng.Intn(8) != 0 {
		p = g.uniform(0.05, 0.95)
	}
	x := g.rng.Intn(7) // 0..6
	alpha := g.uniform(0.2, 3)
	policy := core.IdleWaitPerJob
	if g.rng.Intn(5) == 0 {
		policy = core.IdleWaitPerPeriod
	}

	// Capacity modulation in one case out of three. φ is drawn above
	// util/0.7 so the modulated system stays comfortably stable even if BG
	// work were present all the time (λ/(φµ) ≤ 0.7), which also keeps the
	// simulation windows convergent.
	phi := 1.0
	if g.rng.Intn(3) == 0 {
		phi = g.uniform(math.Min(0.95, util/0.7), 1)
	}

	// Admission policy: 1 in 6 util-threshold, 1 in 6 deadline, the rest
	// blind. The deadline rate stays moderate so the renege flow is a
	// visible but not dominant fraction of the admitted flow.
	admit := core.AdmitAll
	fgThreshold := 0
	deadlineRate := 0.0
	extras := ""
	switch g.rng.Intn(6) {
	case 0:
		admit = core.AdmitUtilThreshold
		fgThreshold = g.rng.Intn(4)
		extras = fmt.Sprintf(",util-K=%d", fgThreshold)
	case 1:
		admit = core.AdmitDeadline
		deadlineRate = g.uniform(0.05, 0.5)
		extras = fmt.Sprintf(",dl=%.2f", deadlineRate)
	}
	if phi != 1 {
		extras += fmt.Sprintf(",phi=%.2f", phi)
	}

	cfg := core.Config{
		Arrival:      arr,
		ServiceRate:  1,
		BGProb:       p,
		BGBuffer:     x,
		IdleRate:     alpha,
		IdlePolicy:   policy,
		ModFactor:    phi,
		BGAdmit:      admit,
		FGThreshold:  fgThreshold,
		DeadlineRate: deadlineRate,
	}
	return Case{
		Name: fmt.Sprintf("case%03d[%s,util=%.2f,p=%.2f,X=%d,a=%.2f,%s%s]",
			idx, kind, util, p, x, alpha, policy, extras),
		Cfg: cfg,
	}
}
