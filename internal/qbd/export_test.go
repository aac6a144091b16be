package qbd

import "bgperf/internal/mat"

// WholeGR is the oracle of the block solve: cyclic reduction on the whole,
// unpermuted repeating level — uniformized by its largest exit rate — and
// the production R step on the result.
func (p *Process) WholeGR() (g, r *mat.Matrix, err error) {
	theta := 0.0
	for i := 0; i < p.order; i++ {
		theta = max(theta, -p.a1.At(i, i))
	}
	theta *= 1 + 1e-12
	b0 := p.a0.Clone().Scale(1 / theta)
	b1 := p.a1.Clone().Scale(1 / theta)
	for i := 0; i < p.order; i++ {
		b1.Add(i, i, 1)
	}
	b2 := p.a2.Clone().Scale(1 / theta)
	if g, _, err = cyclicReduction(b0, b1, b2); err != nil {
		return nil, nil, err
	}
	r, _, err = p.rFromG(g.Clone(), nil)
	return g, r, err
}

// BlockGR returns the production G and R.
func (p *Process) BlockGR() (g, r *mat.Matrix, err error) {
	if g, _, _, err = p.gWS(nil, nil); err != nil {
		return nil, nil, err
	}
	r, err = p.R()
	return g, r, err
}

// PhaseBlocks returns the phase blocks in solve order, each a list of
// original phase indices.
func (p *Process) PhaseBlocks() [][]int {
	blocks := make([][]int, len(p.start)-1)
	for b := range blocks {
		blocks[b] = p.perm[p.start[b]:p.start[b+1]]
	}
	return blocks
}
