package core

import (
	"fmt"

	"bgperf/internal/mat"
	"bgperf/internal/qbd"
)

// trans is one emitted block transition: from block fromIdx of some level to
// block toIdx of level+dLevel, with a composite (A·S)×(A·S) rate matrix.
type trans struct {
	dLevel  int // −1, 0, +1
	fromIdx int
	toIdx   int
	rate    *mat.Matrix
}

// scaled returns rate·base as a fresh matrix, or nil when rate is zero.
func scaled(base *mat.Matrix, rate float64) *mat.Matrix {
	if rate == 0 {
		return nil
	}
	return base.Clone().Scale(rate)
}

// downTargetAfterFGCompletion classifies the state reached when an FG job
// leaves behind x BG jobs and yLeft FG jobs.
func downTargetAfterFGCompletion(x, yLeft int) block {
	if yLeft >= 1 {
		return block{kind: KindFG, x: x}
	}
	if x == 0 {
		return block{kind: KindEmpty}
	}
	return block{kind: KindIdle, x: x}
}

// completionRate returns the composite-rate matrix for a service completion
// leading into the given target block, scaled by prob: a completion that
// starts another service (FG or BG target) resets the service phase with
// t·β; one that empties the system parks the stage with t·e₀; one that
// arms the idle-wait timer additionally resets the idle stage to κ.
// mod selects the φ-scaled matrices of a modulated from-block (BG work in
// the system slows the server to φ·µ); with φ = 1 the two caches alias, so
// the degenerate model assembles bit-identically.
//
// Every call during chain assembly uses prob ∈ {1, p, 1−p}, and the scaled
// products are identical across levels, so they are precomputed once at
// build time (buildComplCache); unknown probabilities fall back to a fresh
// scale. The returned matrix is shared and must not be mutated.
func (m *Model) completionRate(to block, prob float64, mod bool) *mat.Matrix {
	base := complStopEmptyIdx
	switch to.kind {
	case KindFG, KindBG:
		base = complServeIdx
	case KindIdle:
		base = complStopIdleIdx
	}
	cache := &m.complCache
	if mod {
		cache = &m.complCacheMod
	}
	switch prob {
	case 1:
		return cache[base][0]
	case m.cfg.BGProb:
		return cache[base][1]
	case 1 - m.cfg.BGProb:
		return cache[base][2]
	}
	if mod {
		prob *= m.cfg.ModFactor
	}
	return scaled(m.complBase(base), prob)
}

// Completion-rate cache indices: the base matrix by completion target.
const (
	complServeIdx = iota
	complStopIdleIdx
	complStopEmptyIdx
)

func (m *Model) complBase(base int) *mat.Matrix {
	switch base {
	case complServeIdx:
		return m.complServe
	case complStopIdleIdx:
		return m.complStopIdle
	default:
		return m.complStopEmpty
	}
}

// buildComplCache precomputes completionRate's scaled matrices for the three
// probabilities chain assembly uses (1, p, 1−p) across the three completion
// targets, plus the φ-scaled modulated variants (aliased when φ = 1).
func (m *Model) buildComplCache() {
	p := m.cfg.BGProb
	phi := m.cfg.ModFactor
	for base := complServeIdx; base <= complStopEmptyIdx; base++ {
		src := m.complBase(base)
		m.complCache[base] = [3]*mat.Matrix{scaled(src, 1), scaled(src, p), scaled(src, 1-p)}
		if phi == 1 {
			m.complCacheMod[base] = m.complCache[base]
		} else {
			m.complCacheMod[base] = [3]*mat.Matrix{
				scaled(src, phi), scaled(src, phi*p), scaled(src, phi*(1-p)),
			}
		}
	}
}

// admitBG reports whether a BG job generated at an FG completion is admitted
// when the completing job leaves behind x BG jobs and yLeft foreground jobs:
// buffer space is always required, and the util-threshold policy additionally
// demands a foreground backlog of at most FGThreshold. Above the model's
// boundaryTop level (yLeft > xEff + FGThreshold − x … ) the answer is
// uniformly false under util-threshold, which keeps the repeating chain
// level-homogeneous.
func (m *Model) admitBG(x, yLeft int) bool {
	if x >= m.xEff {
		return false
	}
	if m.cfg.BGAdmit == AdmitUtilThreshold && yLeft > m.cfg.FGThreshold {
		return false
	}
	return true
}

// serviceOff returns the within-service stage-move kernel for a block,
// modulated or not.
func (m *Model) serviceOff(mod bool) *mat.Matrix {
	if mod {
		return m.tOffMod
	}
	return m.tOff
}

// transitionsFrom emits every off-diagonal block transition out of the given
// level, encoding the chain of the paper's Fig. 3/4 (with the service
// dimension of footnote 3 folded into the composite phases).
func (m *Model) transitionsFrom(level int) []trans {
	blocks := m.levelBlocks(level)
	var (
		cfg    = m.cfg
		p      = cfg.BGProb
		renege = cfg.DeadlineRate > 0
		// Worst case: six emitted transitions per block (FG with BG
		// admission and deadline reneging); one allocation instead of
		// log-many append growths.
		out = make([]trans, 0, 6*len(blocks))
	)
	emit := func(from block, dLevel int, to block, rate *mat.Matrix) {
		if rate == nil {
			return
		}
		fromIdx := m.blockIndex(level, from)
		toIdx := m.blockIndex(level+dLevel, to)
		if fromIdx < 0 || toIdx < 0 {
			panic(fmt.Sprintf("core: unmapped transition level %d %+v -> %+v", level, from, to))
		}
		out = append(out, trans{dLevel: dLevel, fromIdx: fromIdx, toIdx: toIdx, rate: rate})
	}
	for _, b := range blocks {
		y := level - b.x // FG jobs in system (0 for Empty/Idle by construction)
		switch b.kind {
		case KindEmpty:
			emit(b, +1, block{kind: KindFG, x: 0}, m.fStart)
			emit(b, 0, b, m.lServe)

		case KindFG:
			// With BG work in the system the server is modulated: every
			// service-derived kernel is scaled by φ.
			mod := b.x >= 1
			emit(b, +1, block{kind: KindFG, x: b.x}, m.fServe)
			emit(b, 0, b, m.lServe)
			emit(b, 0, b, m.serviceOff(mod))
			// Completion without BG generation.
			to := downTargetAfterFGCompletion(b.x, y-1)
			emit(b, -1, to, m.completionRate(to, 1-p, mod))
			if p > 0 {
				if m.admitBG(b.x, y-1) {
					// BG admitted: FG leaves, BG joins — same level.
					to := block{kind: KindFG, x: b.x + 1}
					if y-1 == 0 {
						to = block{kind: KindIdle, x: b.x + 1}
					}
					emit(b, 0, to, m.completionRate(to, p, mod))
				} else {
					// Buffer full (or the foreground backlog exceeds the
					// util threshold): the generated BG job is dropped.
					to := downTargetAfterFGCompletion(b.x, y-1)
					emit(b, -1, to, m.completionRate(to, p, mod))
				}
			}
			if renege && b.x >= 1 {
				// All b.x BG jobs wait during an FG service; each abandons
				// at rate δ.
				emit(b, -1, block{kind: KindFG, x: b.x - 1}, m.renegeServe[b.x])
			}

		case KindBG:
			emit(b, +1, block{kind: KindBG, x: b.x}, m.fServe)
			emit(b, 0, b, m.lServe)
			emit(b, 0, b, m.serviceOff(true))
			if y >= 1 {
				// BG completes with FG waiting: an FG job starts service.
				to := block{kind: KindFG, x: b.x - 1}
				emit(b, -1, to, m.completionRate(to, 1, true))
			} else {
				// BG completes with the system otherwise empty.
				var to block
				switch {
				case b.x-1 == 0:
					to = block{kind: KindEmpty}
				case cfg.IdlePolicy == IdleWaitPerPeriod:
					to = block{kind: KindBG, x: b.x - 1}
				default: // IdleWaitPerJob
					to = block{kind: KindIdle, x: b.x - 1}
				}
				emit(b, -1, to, m.completionRate(to, 1, true))
			}
			if renege && b.x >= 2 {
				// The in-service BG job cannot renege; the other x−1 wait.
				emit(b, -1, block{kind: KindBG, x: b.x - 1}, m.renegeServe[b.x-1])
			}

		case KindIdle:
			// An arriving FG job seizes the idle server immediately,
			// abandoning the idle timer.
			emit(b, +1, block{kind: KindFG, x: b.x}, m.fStart)
			emit(b, 0, b, m.lIdle)
			emit(b, 0, b, m.vOff)
			// Idle wait expires: a BG job starts service.
			emit(b, 0, block{kind: KindBG, x: b.x}, m.idleGo)
			if renege {
				// All x jobs wait during an idle wait. The last renege
				// abandons the timer and empties the system; earlier ones
				// keep the idle stage running.
				if b.x >= 2 {
					emit(b, -1, block{kind: KindIdle, x: b.x - 1}, m.renegeIdle[b.x])
				} else {
					emit(b, -1, block{kind: KindEmpty}, m.renegeServe[1])
				}
			}
		}
	}
	return out
}

// levelMatrices assembles (Down, Local, Up) for one level from the emitted
// transitions, with the Local diagonal left at zero (fixed globally later).
func (m *Model) levelMatrices(level int) (down, local, up *mat.Matrix) {
	nHere := m.levelStates(level)
	local = mat.New(nHere, nHere)
	up = mat.New(nHere, m.levelStates(level+1))
	if level > 0 {
		down = mat.New(nHere, m.levelStates(level-1))
	}
	a := m.Phases()
	for _, tr := range m.transitionsFrom(level) {
		var dst *mat.Matrix
		switch tr.dLevel {
		case -1:
			dst = down
		case 0:
			dst = local
		case +1:
			dst = up
		}
		dst.AddBlockAt(tr.fromIdx*a, tr.toIdx*a, tr.rate)
	}
	return down, local, up
}

// fixDiagonal sets local's diagonal so every global row sums to zero.
func fixDiagonal(local *mat.Matrix, others ...*mat.Matrix) {
	n := local.Rows()
	for i := 0; i < n; i++ {
		sum := local.RowSum(i)
		for _, o := range others {
			if o != nil {
				sum += o.RowSum(i)
			}
		}
		local.Add(i, i, -sum)
	}
}

// qbdBlocks builds the boundary (levels 0..boundaryTop) and repeating
// (levels > boundaryTop) blocks of the chain. boundaryTop is X except under
// the util-threshold admission policy, whose level-dependent admission
// pushes the homogeneous region up to X + K + 1.
func (m *Model) qbdBlocks() (qbd.Boundary, *qbd.Process, error) {
	top := m.boundaryTop
	boundary := qbd.Boundary{
		Local: make([]*mat.Matrix, top+1),
		Up:    make([]*mat.Matrix, top+1),
		Down:  make([]*mat.Matrix, top+1),
	}
	for j := 0; j <= top; j++ {
		down, local, up := m.levelMatrices(j)
		fixDiagonal(local, up, down)
		boundary.Local[j] = local
		boundary.Up[j] = up
		boundary.Down[j] = down
	}
	// Transitions from the first repeating level down into the last
	// boundary level differ structurally from the homogeneous A2 (they can
	// enter idle-wait states), so they are built explicitly.
	repDown, _, _ := m.levelMatrices(top + 1)
	boundary.RepDown = repDown

	// The repeating blocks are built at a virtual level two past the
	// boundary, where both neighbouring levels already have the repeating
	// layout.
	a2, a1, a0 := m.levelMatrices(top + 2)
	fixDiagonal(a1, a0, a2)
	proc, err := qbd.New(a0, a1, a2)
	if err != nil {
		return qbd.Boundary{}, nil, fmt.Errorf("core: assembling QBD: %w", err)
	}
	proc.SetWorkers(m.workers)
	return boundary, proc, nil
}

// Generator builds the truncated global generator covering levels
// 0..maxLevel, with down-only truncation at the top (the top level keeps its
// true diagonal minus up-rates, so row sums are zero). Intended for tests and
// brute-force validation on small instances.
func (m *Model) Generator(maxLevel int) *mat.Matrix {
	offsets := make([]int, maxLevel+1)
	total := 0
	for j := 0; j <= maxLevel; j++ {
		offsets[j] = total
		total += m.levelStates(j)
	}
	g := mat.New(total, total)
	a := m.Phases()
	for j := 0; j <= maxLevel; j++ {
		for _, tr := range m.transitionsFrom(j) {
			if j+tr.dLevel > maxLevel || j+tr.dLevel < 0 {
				continue
			}
			g.AddBlockAt(offsets[j]+tr.fromIdx*a, offsets[j+tr.dLevel]+tr.toIdx*a, tr.rate)
		}
	}
	for i := 0; i < total; i++ {
		g.Add(i, i, -g.RowSum(i))
	}
	return g
}

// matSpectralRadius estimates the spectral radius of a nonnegative matrix.
func matSpectralRadius(r *mat.Matrix) float64 {
	return mat.SpectralRadius(r, 1e-12, 10000)
}
