// Package multiclass implements the extension the paper announces as future
// work (Sec. 6): background jobs of more than one priority level. A single
// non-preemptive server serves foreground jobs under MAP arrivals; each
// foreground completion spawns a class-1 (high-priority) background job with
// probability p1 or a class-2 (low-priority) one with probability p2. Each
// class has its own finite buffer. When the idle wait expires, the server
// picks a class-1 job if any is buffered, otherwise a class-2 job — the
// storage scenario of urgent WRITE verification coexisting with bulk
// scrubbing.
//
// The model keeps the paper's exponential service and idle-wait laws (the
// single-class core additionally supports PH/MAP variants). The chain
// levels by the total job count x1+x2+y and remains a QBD: the
// boundary spans levels 0..X1+X2, after which the layout repeats. A useful
// structural fact keeps the state space small: class-2 service can only
// start when no class-1 job is buffered, and no class-1 job can appear while
// a class-2 job holds the server (background jobs are born only at
// foreground completions), so class-2-serving states always carry x1 = 0.
package multiclass

import (
	"errors"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/mat"
)

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("multiclass: invalid configuration")

// Config parameterizes the two-priority background model.
type Config struct {
	// Arrival is the foreground arrival process.
	Arrival *arrival.MAP
	// ServiceRate is the exponential service rate µ shared by all classes.
	ServiceRate float64
	// BG1Prob and BG2Prob are the per-completion spawn probabilities of the
	// high- and low-priority background classes (p1 + p2 ≤ 1).
	BG1Prob, BG2Prob float64
	// BG1Buffer and BG2Buffer are the per-class buffer capacities.
	BG1Buffer, BG2Buffer int
	// IdleRate is the idle-wait rate α.
	IdleRate float64
	// IdlePolicy selects per-job or per-period idle-wait re-arming (zero
	// value: per-job), with the same semantics as the single-class model.
	IdlePolicy core.IdleWaitPolicy
}

func (c Config) withDefaults() Config {
	if c.IdlePolicy == 0 {
		c.IdlePolicy = core.IdleWaitPerJob
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Arrival == nil:
		return core.NewValidationError(ErrConfig, "Arrival", "nil arrival process")
	case c.ServiceRate <= 0:
		return core.NewValidationError(ErrConfig, "ServiceRate", "service rate %g must be positive", c.ServiceRate)
	case c.BG1Prob < 0 || c.BG2Prob < 0 || c.BG1Prob+c.BG2Prob > 1:
		return core.NewValidationError(ErrConfig, "BG1Prob", "spawn probabilities (%g, %g) must be nonnegative with sum <= 1", c.BG1Prob, c.BG2Prob)
	case c.BG1Buffer < 0 || c.BG2Buffer < 0:
		return core.NewValidationError(ErrConfig, "BG1Buffer", "negative buffer")
	case (c.BG1Buffer > 0 && c.BG1Prob > 0 || c.BG2Buffer > 0 && c.BG2Prob > 0) && c.IdleRate <= 0:
		return core.NewValidationError(ErrConfig, "IdleRate", "idle rate %g must be positive when background work exists", c.IdleRate)
	case c.IdlePolicy != core.IdleWaitPerJob && c.IdlePolicy != core.IdleWaitPerPeriod:
		return core.NewValidationError(ErrConfig, "IdlePolicy", "unknown idle-wait policy %d", int(c.IdlePolicy))
	}
	return nil
}

// kind classifies the server condition.
type kind int

const (
	kindEmpty kind = iota + 1
	kindFG
	kindBG1 // serving a class-1 background job
	kindBG2 // serving a class-2 background job (x1 is always 0 here)
	kindIdle
)

// block identifies a phase group within a level. y = level − x1 − x2.
type block struct {
	kind   kind
	x1, x2 int
}

// levelLayout is the cached block enumeration of one level: the canonical
// block order plus the inverse index used by the transition emitter.
type levelLayout struct {
	blocks []block
	index  map[block]int
}

// Model is a validated, solvable instance.
type Model struct {
	cfg     Config
	phases  int
	f       *mat.Matrix
	l       *mat.Matrix
	rateVec []float64
	// x1, x2 are the effective buffer sizes (pruned to 0 when the matching
	// spawn probability is 0, keeping the phase process irreducible).
	x1, x2 int

	// layouts[j] caches the block layout of level j for j = 0..x1+x2+1; every
	// level at or past x1+x2+1 has the identical repeating layout and shares
	// the last entry. Built once in NewModel so the chain build, the metric
	// masks, and the transition emitter all run allocation-free lookups.
	layouts []*levelLayout
	// scaled caches the handful of distinct scaled-identity rate blocks
	// (µ(1−p1−p2), µp1, µp2, µ, α) the transition emitter reuses across every
	// level instead of allocating one per emitted transition.
	scaled map[float64]*mat.Matrix

	// workers is forwarded to the qbd.Process built by each solve.
	workers int
}

// SetWorkers bounds the block-row fan-out of the multiplies inside the R
// iteration for all subsequent solves; n <= 1 runs serially. It must not be
// called concurrently with a solve.
func (m *Model) SetWorkers(n int) { m.workers = n }

// NewModel validates cfg and prepares the chain builder.
func NewModel(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d0 := cfg.Arrival.D0()
	a := d0.Rows()
	l := mat.New(a, a)
	for i := 0; i < a; i++ {
		for j := 0; j < a; j++ {
			if i != j {
				l.Set(i, j, d0.At(i, j))
			}
		}
	}
	f := cfg.Arrival.D1()
	m := &Model{
		cfg:     cfg,
		phases:  a,
		f:       f,
		l:       l,
		rateVec: f.RowSums(),
		x1:      cfg.BG1Buffer,
		x2:      cfg.BG2Buffer,
	}
	if cfg.BG1Prob == 0 {
		m.x1 = 0
	}
	if cfg.BG2Prob == 0 {
		m.x2 = 0
	}
	m.layouts = make([]*levelLayout, m.x1+m.x2+2)
	for j := range m.layouts {
		blocks := m.buildLevelBlocks(j)
		index := make(map[block]int, len(blocks))
		for i, b := range blocks {
			index[b] = i
		}
		m.layouts[j] = &levelLayout{blocks: blocks, index: index}
	}
	m.scaled = make(map[float64]*mat.Matrix)
	return m, nil
}

// layout returns the cached block layout of a level; levels past the
// boundary share the repeating layout.
func (m *Model) layout(level int) *levelLayout {
	if level >= len(m.layouts) {
		level = len(m.layouts) - 1
	}
	return m.layouts[level]
}

// Config returns the configuration with defaults applied.
func (m *Model) Config() Config { return m.cfg }

// Phases returns the MAP order.
func (m *Model) Phases() int { return m.phases }

// boundaryLevels returns the number of boundary levels (X1+X2+1).
func (m *Model) boundaryLevels() int { return m.x1 + m.x2 + 1 }

// levelBlocks returns the blocks of one level in the fixed canonical order:
// FG states by (x1, x2), then BG1-serving, then BG2-serving, then idle-wait
// states (boundary levels only). The returned slice is the cached layout and
// must not be mutated.
func (m *Model) levelBlocks(level int) []block {
	return m.layout(level).blocks
}

// buildLevelBlocks enumerates a level's blocks from scratch; NewModel caches
// one layout per distinct level shape.
func (m *Model) buildLevelBlocks(level int) []block {
	if level == 0 {
		return []block{{kind: kindEmpty}}
	}
	var blocks []block
	// FG: y = level − x1 − x2 ≥ 1.
	for x1 := 0; x1 <= m.x1; x1++ {
		for x2 := 0; x2 <= m.x2; x2++ {
			if level-x1-x2 >= 1 {
				blocks = append(blocks, block{kind: kindFG, x1: x1, x2: x2})
			}
		}
	}
	// BG1-serving: x1 ≥ 1, y ≥ 0.
	for x1 := 1; x1 <= m.x1; x1++ {
		for x2 := 0; x2 <= m.x2; x2++ {
			if level-x1-x2 >= 0 {
				blocks = append(blocks, block{kind: kindBG1, x1: x1, x2: x2})
			}
		}
	}
	// BG2-serving: x1 = 0, x2 ≥ 1, y ≥ 0.
	for x2 := 1; x2 <= m.x2; x2++ {
		if level-x2 >= 0 {
			blocks = append(blocks, block{kind: kindBG2, x2: x2})
		}
	}
	// Idle-wait: y = 0, x1+x2 = level ≥ 1 (boundary levels only).
	for x1 := 0; x1 <= m.x1; x1++ {
		x2 := level - x1
		if x2 >= 0 && x2 <= m.x2 && x1+x2 >= 1 {
			blocks = append(blocks, block{kind: kindIdle, x1: x1, x2: x2})
		}
	}
	return blocks
}

// blockIndex returns the position of b within its level, or −1.
func (m *Model) blockIndex(level int, b block) int {
	if i, ok := m.layout(level).index[b]; ok {
		return i
	}
	return -1
}

// levelStates returns the number of chain states in one level.
func (m *Model) levelStates(level int) int {
	return len(m.levelBlocks(level)) * m.phases
}
