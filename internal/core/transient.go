package core

import (
	"fmt"

	"bgperf/internal/markov"
)

// TransientPoint is a time slice of the transient behaviour of the model,
// started from an empty system with the arrival process in its
// time-stationary phase mix.
type TransientPoint struct {
	// Time is the elapsed model time.
	Time float64
	// QLenFG and QLenBG are the expected FG/BG populations at Time.
	QLenFG, QLenBG float64
	// UtilFG, UtilBG, ProbIdleWait, ProbEmpty partition the server state.
	UtilFG, UtilBG, ProbIdleWait, ProbEmpty float64
}

// Transient computes the time-dependent behaviour of the chain by
// uniformization on the generator truncated at maxLevel FG jobs (arrivals
// are suppressed at the truncation level, so choose maxLevel well above the
// FG counts reached within the horizon — a safe rule is several times the
// stationary QLenFG). Times must be nondecreasing.
func (m *Model) Transient(maxLevel int, times []float64) ([]TransientPoint, error) {
	if top := m.xEff + m.x2Eff + 2; maxLevel < top {
		return nil, fmt.Errorf("%w: truncation level %d below boundary %d", ErrConfig, maxLevel, top)
	}
	g := m.Generator(maxLevel)
	// Initial vector: empty system (block 0 of level 0), time-stationary
	// arrival phase, service and idle stages parked at 0 (the dummy stages
	// of non-serving states).
	pi0 := make([]float64, g.Rows())
	arrPi := m.cfg.Arrival.TimeStationary()
	for a, v := range arrPi {
		pi0[a*m.sPhases*m.wPhases] = v
	}
	dists, err := markov.Transient(g, pi0, times)
	if err != nil {
		return nil, fmt.Errorf("core: transient: %w", err)
	}
	out := make([]TransientPoint, len(times))
	for ti, dist := range dists {
		pt := TransientPoint{Time: times[ti]}
		idx := 0
		dim := m.Phases()
		for j := 0; j <= maxLevel; j++ {
			for _, b := range m.levelBlocks(j) {
				var mass float64
				for ph := 0; ph < dim; ph++ {
					mass += dist[idx]
					idx++
				}
				pt.QLenFG += float64(j) * mass
				pt.QLenBG += float64(b.x) * mass
				switch b.kind {
				case KindFG:
					pt.UtilFG += mass
				case KindBG:
					pt.UtilBG += mass
				case KindIdle:
					pt.ProbIdleWait += mass
				case KindEmpty:
					pt.ProbEmpty += mass
				}
			}
		}
		out[ti] = pt
	}
	return out, nil
}
