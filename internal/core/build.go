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
// leaves behind the BG jobs of b and yLeft FG jobs.
func downTargetAfterFGCompletion(b block, yLeft int) block {
	switch {
	case yLeft >= 1:
		return block{kind: KindFG, x: b.x, x2: b.x2}
	case b.x+b.x2 == 0:
		return block{kind: KindEmpty}
	default:
		return block{kind: KindIdle, x: b.x, x2: b.x2}
	}
}

// bgPick is the priority pick of the next BG service among the BG jobs of
// b: a class-1 job whenever one is buffered, otherwise a class-2 one.
func bgPick(b block) block {
	if b.x >= 1 {
		return block{kind: KindBG, x: b.x, x2: b.x2}
	}
	return block{kind: KindBG2, x2: b.x2}
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
// Every call during chain assembly uses prob ∈ {1, p, p2, 1−p−p2}, and the
// scaled products are identical across levels, so they are precomputed once
// at build time (buildComplCache); unknown probabilities fall back to a
// fresh scale. The returned matrix is shared and must not be mutated.
func (m *Model) completionRate(to block, prob float64, mod bool) *mat.Matrix {
	base := complStopEmptyIdx
	switch to.kind {
	case KindFG, KindBG, KindBG2:
		base = complServeIdx
	case KindIdle:
		base = complStopIdleIdx
	}
	cache := &m.complCache
	if mod {
		cache = &m.complCacheMod
	}
	for i, p := range m.complProbs() {
		if prob == p {
			return cache[base][i]
		}
	}
	if mod {
		prob *= m.cfg.ModFactor
	}
	return scaled(m.complBase(base), prob)
}

// complProbs lists the completion probabilities chain assembly uses, in
// complCache order: 1, p, p2, and 1−p−p2 (1−p for a single class).
func (m *Model) complProbs() [4]float64 {
	p, p2 := m.cfg.BGProb, m.cfg.BG2Prob
	return [4]float64{1, p, p2, 1 - p - p2}
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

// buildComplCache precomputes completionRate's scaled matrices for the four
// probabilities chain assembly uses across the three completion targets,
// plus the φ-scaled modulated variants (aliased when φ = 1). A zero
// probability (p2 of a single-class model) caches nil without allocating.
func (m *Model) buildComplCache() {
	phi := m.cfg.ModFactor
	probs := m.complProbs()
	for base := complServeIdx; base <= complStopEmptyIdx; base++ {
		src := m.complBase(base)
		for i, p := range probs {
			m.complCache[base][i] = scaled(src, p)
		}
		if phi == 1 {
			m.complCacheMod[base] = m.complCache[base]
			continue
		}
		for i, p := range probs {
			m.complCacheMod[base][i] = scaled(src, phi*p)
		}
	}
}

// admitBG reports whether a BG job of the given class generated at an FG
// completion is admitted when the completing job leaves behind the BG jobs
// of b and yLeft foreground jobs: buffer space in the job's class is always
// required, and the util-threshold policy (single-class models only)
// additionally demands a foreground backlog of at most FGThreshold. Above
// level FGThreshold + 1 the answer is uniformly false under util-threshold,
// which keeps the repeating chain level-homogeneous.
func (m *Model) admitBG(b block, yLeft int, class2 bool) bool {
	if class2 {
		return b.x2 < m.x2Eff
	}
	if b.x >= m.xEff {
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

// transitionsFrom emits every off-diagonal block transition out of level y,
// encoding the chain of the paper's Fig. 3/4 (with the service dimension of
// footnote 3 folded into the composite phases). Levels count FG jobs, so
// FG arrivals go up, every FG completion goes down, and all other
// transitions stay within the level.
func (m *Model) transitionsFrom(y int) []trans {
	blocks := m.levelBlocks(y)
	var (
		cfg    = m.cfg
		p, p2  = cfg.BGProb, cfg.BG2Prob
		renege = cfg.DeadlineRate > 0
		// Worst case: six emitted transitions per block (FG with BG
		// admission and deadline reneging); one allocation instead of
		// log-many append growths.
		out = make([]trans, 0, 6*len(blocks))
	)
	// emit records a transition out of blocks[fromIdx], the block the loop
	// below is visiting.
	var fromIdx int
	emit := func(dLevel int, to block, rate *mat.Matrix) {
		if rate == nil {
			return
		}
		toIdx := m.blockIndex(y+dLevel, to)
		if toIdx < 0 {
			panic(fmt.Sprintf("core: unmapped transition level %d %+v -> %+v", y, blocks[fromIdx], to))
		}
		out = append(out, trans{dLevel: dLevel, fromIdx: fromIdx, toIdx: toIdx, rate: rate})
	}
	for i, b := range blocks {
		fromIdx = i
		switch b.kind {
		case KindEmpty:
			emit(+1, block{kind: KindFG}, m.fStart)
			emit(0, b, m.lServe)

		case KindFG:
			// With BG work in the system the server is modulated: every
			// service-derived kernel is scaled by φ.
			mod := b.x+b.x2 >= 1
			emit(+1, b, m.fServe)
			emit(0, b, m.lServe)
			emit(0, b, m.serviceOff(mod))
			// Completion without BG generation.
			to := downTargetAfterFGCompletion(b, y-1)
			emit(-1, to, m.completionRate(to, 1-p-p2, mod))
			for _, class2 := range [2]bool{false, true} {
				prob := p
				if class2 {
					prob = p2
				}
				if prob == 0 {
					continue
				}
				if !m.admitBG(b, y-1, class2) {
					// Buffer full (or the foreground backlog exceeds the
					// util threshold): the generated BG job is dropped.
					to := downTargetAfterFGCompletion(b, y-1)
					emit(-1, to, m.completionRate(to, prob, mod))
					continue
				}
				// BG admitted: FG leaves, BG joins.
				to := block{kind: KindFG, x: b.x, x2: b.x2}
				if class2 {
					to.x2++
				} else {
					to.x++
				}
				if y-1 == 0 {
					to.kind = KindIdle
				}
				emit(-1, to, m.completionRate(to, prob, mod))
			}
			if renege && b.x >= 1 {
				// All b.x BG jobs wait during an FG service; each abandons
				// at rate δ.
				emit(0, block{kind: KindFG, x: b.x - 1}, m.renegeServe[b.x])
			}

		case KindBG, KindBG2:
			emit(+1, b, m.fServe)
			emit(0, b, m.lServe)
			emit(0, b, m.serviceOff(true))
			// The BG jobs left once the one in service completes.
			left := block{x: b.x, x2: b.x2}
			if b.kind == KindBG {
				left.x--
			} else {
				left.x2--
			}
			var to block
			switch {
			case y >= 1:
				// BG completes with FG waiting: an FG job starts service.
				to = block{kind: KindFG, x: left.x, x2: left.x2}
			case left.x+left.x2 == 0:
				to = block{kind: KindEmpty}
			case cfg.IdlePolicy == IdleWaitPerPeriod:
				to = bgPick(left)
			default: // IdleWaitPerJob
				to = block{kind: KindIdle, x: left.x, x2: left.x2}
			}
			emit(0, to, m.completionRate(to, 1, true))
			if renege && b.x >= 2 {
				// The in-service BG job cannot renege; the other x−1 wait.
				emit(0, block{kind: KindBG, x: b.x - 1}, m.renegeServe[b.x-1])
			}

		case KindIdle:
			// An arriving FG job seizes the idle server immediately,
			// abandoning the idle timer.
			emit(+1, block{kind: KindFG, x: b.x, x2: b.x2}, m.fStart)
			emit(0, b, m.lIdle)
			emit(0, b, m.vOff)
			// Idle wait expires: a BG job starts service, class 1 first.
			emit(0, bgPick(b), m.idleGo)
			if renege {
				// All x jobs wait during an idle wait. The last renege
				// abandons the timer and empties the system; earlier ones
				// keep the idle stage running.
				if b.x >= 2 {
					emit(0, block{kind: KindIdle, x: b.x - 1}, m.renegeIdle[b.x])
				} else {
					emit(0, block{kind: KindEmpty}, m.renegeServe[1])
				}
			}
		}
	}
	return out
}

// levelMatrices assembles (Down, Local, Up) for level y from the emitted
// transitions, with the Local diagonal left at zero (fixed globally later).
func (m *Model) levelMatrices(y int) (down, local, up *mat.Matrix) {
	n := m.levelStates()
	local = mat.New(n, n)
	up = mat.New(n, n)
	if y > 0 {
		down = mat.New(n, n)
	}
	m.addTransitions(y, down, local, up)
	return down, local, up
}

// downMatrix assembles only the Down block of level y ≥ 1.
func (m *Model) downMatrix(y int) *mat.Matrix {
	n := m.levelStates()
	down := mat.New(n, n)
	m.addTransitions(y, down, nil, nil)
	return down
}

// addTransitions adds the transitions emitted from level y into the block
// of their level change; a nil block skips its transitions.
func (m *Model) addTransitions(y int, down, local, up *mat.Matrix) {
	a := m.Phases()
	for _, tr := range m.transitionsFrom(y) {
		var dst *mat.Matrix
		switch tr.dLevel {
		case -1:
			dst = down
		case 0:
			dst = local
		case +1:
			dst = up
		}
		if dst != nil {
			dst.AddBlockAt(tr.fromIdx*a, tr.toIdx*a, tr.rate)
		}
	}
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

// qbdBlocks builds the boundary and repeating blocks of the chain. The
// boundary is level 0, whose layout holds the empty, idle-wait and y = 0
// BG-serving states. Under the util-threshold admission policy, admission
// depends on the FG count, so the boundary spans levels 0..K+1 and the
// repeating region starts where every admission is denied.
func (m *Model) qbdBlocks() (qbd.Boundary, *qbd.Process, error) {
	top := 0
	if m.cfg.BGAdmit == AdmitUtilThreshold && m.xEff > 0 {
		top = m.cfg.FGThreshold + 1
	}
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
	// FG completions from the first repeating level can enter level 0's
	// idle-wait and empty states, so its down block is built explicitly.
	boundary.RepDown = m.downMatrix(top + 1)

	// The repeating blocks are built at a level two past the boundary,
	// whose neighbours both have the repeating layout.
	a2, a1, a0 := m.levelMatrices(top + 2)
	fixDiagonal(a1, a0, a2)
	proc, err := qbd.New(a0, a1, a2)
	if err != nil {
		return qbd.Boundary{}, nil, fmt.Errorf("core: assembling QBD: %w", err)
	}
	return boundary, proc, nil
}

// ChainQBD returns the boundary and the repeating process of the chain m
// solves, so solver tests can hand them to their oracles.
func (m *Model) ChainQBD() (qbd.Boundary, *qbd.Process, error) { return m.qbdBlocks() }

// Generator builds the truncated global generator covering levels
// 0..maxLevel (FG counts up to maxLevel), with down-only truncation at the
// top (the top level keeps its true diagonal minus up-rates, so row sums are
// zero). Intended for tests and brute-force validation on small instances.
func (m *Model) Generator(maxLevel int) *mat.Matrix {
	n := m.levelStates()
	g := mat.New((maxLevel+1)*n, (maxLevel+1)*n)
	a := m.Phases()
	for j := 0; j <= maxLevel; j++ {
		for _, tr := range m.transitionsFrom(j) {
			if j+tr.dLevel > maxLevel {
				continue
			}
			g.AddBlockAt(j*n+tr.fromIdx*a, (j+tr.dLevel)*n+tr.toIdx*a, tr.rate)
		}
	}
	for i := 0; i < g.Rows(); i++ {
		g.Add(i, i, -g.RowSum(i))
	}
	return g
}
