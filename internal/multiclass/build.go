package multiclass

import (
	"fmt"

	"bgperf/internal/core"
	"bgperf/internal/mat"
	"bgperf/internal/qbd"
)

// trans is one emitted block transition.
type trans struct {
	dLevel  int
	fromIdx int
	toIdx   int
	rate    *mat.Matrix
}

// scaledIdentity returns rate·I, cached per distinct rate: the emitter
// requests the same handful of rate blocks for every level, so the chain
// build allocates each exactly once per model. Callers must not mutate the
// result.
func (m *Model) scaledIdentity(rate float64) *mat.Matrix {
	if rate == 0 {
		return nil
	}
	if s, ok := m.scaled[rate]; ok {
		return s
	}
	s := mat.Identity(m.phases).Scale(rate)
	m.scaled[rate] = s
	return s
}

// downTarget classifies the state reached when a foreground completion (or a
// buffer-full drop) leaves behind (x1, x2) background jobs and yLeft
// foreground jobs.
func downTarget(x1, x2, yLeft int) block {
	if yLeft >= 1 {
		return block{kind: kindFG, x1: x1, x2: x2}
	}
	if x1+x2 == 0 {
		return block{kind: kindEmpty}
	}
	return block{kind: kindIdle, x1: x1, x2: x2}
}

// transitionsFrom emits every off-diagonal block transition out of a level.
func (m *Model) transitionsFrom(level int) []trans {
	var (
		cfg    = m.cfg
		mu     = cfg.ServiceRate
		p1, p2 = cfg.BG1Prob, cfg.BG2Prob
		out    []trans
	)
	emit := func(from block, dLevel int, to block, rate *mat.Matrix) {
		if rate == nil {
			return
		}
		fromIdx := m.blockIndex(level, from)
		toIdx := m.blockIndex(level+dLevel, to)
		if fromIdx < 0 || toIdx < 0 {
			panic(fmt.Sprintf("multiclass: unmapped transition level %d %+v -> %+v", level, from, to))
		}
		out = append(out, trans{dLevel: dLevel, fromIdx: fromIdx, toIdx: toIdx, rate: rate})
	}
	for _, b := range m.levelBlocks(level) {
		y := level - b.x1 - b.x2
		switch b.kind {
		case kindEmpty:
			emit(b, +1, block{kind: kindFG}, m.f)
			emit(b, 0, b, m.l)

		case kindFG:
			emit(b, +1, b, m.f)
			emit(b, 0, b, m.l)
			emit(b, -1, downTarget(b.x1, b.x2, y-1), m.scaledIdentity(mu*(1-p1-p2)))
			if p1 > 0 {
				if b.x1 < m.x1 {
					to := block{kind: kindFG, x1: b.x1 + 1, x2: b.x2}
					if y-1 == 0 {
						to = block{kind: kindIdle, x1: b.x1 + 1, x2: b.x2}
					}
					emit(b, 0, to, m.scaledIdentity(mu*p1))
				} else {
					emit(b, -1, downTarget(b.x1, b.x2, y-1), m.scaledIdentity(mu*p1))
				}
			}
			if p2 > 0 {
				if b.x2 < m.x2 {
					to := block{kind: kindFG, x1: b.x1, x2: b.x2 + 1}
					if y-1 == 0 {
						to = block{kind: kindIdle, x1: b.x1, x2: b.x2 + 1}
					}
					emit(b, 0, to, m.scaledIdentity(mu*p2))
				} else {
					emit(b, -1, downTarget(b.x1, b.x2, y-1), m.scaledIdentity(mu*p2))
				}
			}

		case kindBG1:
			emit(b, +1, b, m.f)
			emit(b, 0, b, m.l)
			var to block
			switch {
			case y >= 1:
				to = block{kind: kindFG, x1: b.x1 - 1, x2: b.x2}
			case b.x1-1 == 0 && b.x2 == 0:
				to = block{kind: kindEmpty}
			case cfg.IdlePolicy == core.IdleWaitPerPeriod && b.x1-1 >= 1:
				to = block{kind: kindBG1, x1: b.x1 - 1, x2: b.x2}
			case cfg.IdlePolicy == core.IdleWaitPerPeriod: // x1−1 = 0, x2 ≥ 1
				to = block{kind: kindBG2, x2: b.x2}
			default:
				to = block{kind: kindIdle, x1: b.x1 - 1, x2: b.x2}
			}
			emit(b, -1, to, m.scaledIdentity(mu))

		case kindBG2: // x1 = 0 by construction
			emit(b, +1, b, m.f)
			emit(b, 0, b, m.l)
			var to block
			switch {
			case y >= 1:
				to = block{kind: kindFG, x2: b.x2 - 1}
			case b.x2-1 == 0:
				to = block{kind: kindEmpty}
			case cfg.IdlePolicy == core.IdleWaitPerPeriod:
				to = block{kind: kindBG2, x2: b.x2 - 1}
			default:
				to = block{kind: kindIdle, x2: b.x2 - 1}
			}
			emit(b, -1, to, m.scaledIdentity(mu))

		case kindIdle:
			emit(b, +1, block{kind: kindFG, x1: b.x1, x2: b.x2}, m.f)
			emit(b, 0, b, m.l)
			// Priority pick at idle-wait expiry: class 1 first.
			to := block{kind: kindBG2, x2: b.x2}
			if b.x1 >= 1 {
				to = block{kind: kindBG1, x1: b.x1, x2: b.x2}
			}
			emit(b, 0, to, m.scaledIdentity(cfg.IdleRate))
		}
	}
	return out
}

// levelMatrices assembles (Down, Local, Up) for one level; the Local
// diagonal is left at zero.
func (m *Model) levelMatrices(level int) (down, local, up *mat.Matrix) {
	nHere := m.levelStates(level)
	local = mat.New(nHere, nHere)
	up = mat.New(nHere, m.levelStates(level+1))
	if level > 0 {
		down = mat.New(nHere, m.levelStates(level-1))
	}
	a := m.phases
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

func fixDiagonal(local *mat.Matrix, others ...*mat.Matrix) {
	for i := 0; i < local.Rows(); i++ {
		sum := local.RowSum(i)
		for _, o := range others {
			if o != nil {
				sum += o.RowSum(i)
			}
		}
		local.Add(i, i, -sum)
	}
}

// qbdBlocks builds the boundary (levels 0..X1+X2) and repeating blocks.
func (m *Model) qbdBlocks() (qbd.Boundary, *qbd.Process, error) {
	b := m.x1 + m.x2
	boundary := qbd.Boundary{
		Local: make([]*mat.Matrix, b+1),
		Up:    make([]*mat.Matrix, b+1),
		Down:  make([]*mat.Matrix, b+1),
	}
	for j := 0; j <= b; j++ {
		down, local, up := m.levelMatrices(j)
		fixDiagonal(local, up, down)
		boundary.Local[j] = local
		boundary.Up[j] = up
		boundary.Down[j] = down
	}
	repDown, _, _ := m.levelMatrices(b + 1)
	boundary.RepDown = repDown
	a2, a1, a0 := m.levelMatrices(b + 2)
	fixDiagonal(a1, a0, a2)
	proc, err := qbd.New(a0, a1, a2)
	if err != nil {
		return qbd.Boundary{}, nil, fmt.Errorf("multiclass: assembling QBD: %w", err)
	}
	proc.SetWorkers(m.workers)
	return boundary, proc, nil
}

// Generator builds the truncated global generator for levels 0..maxLevel
// (up-transitions cut at the top level); for tests.
func (m *Model) Generator(maxLevel int) *mat.Matrix {
	offsets := make([]int, maxLevel+1)
	total := 0
	for j := 0; j <= maxLevel; j++ {
		offsets[j] = total
		total += m.levelStates(j)
	}
	g := mat.New(total, total)
	a := m.phases
	for j := 0; j <= maxLevel; j++ {
		for _, tr := range m.transitionsFrom(j) {
			if j+tr.dLevel > maxLevel || j+tr.dLevel < 0 {
				continue
			}
			g.AddBlockAt(offsets[j]+tr.fromIdx*a, offsets[j+tr.dLevel]+tr.toIdx*a, tr.rate)
		}
	}
	for i := 0; i < total; i++ {
		g.Add(i, i, -mat.Sum(g.Row(i)))
	}
	return g
}
