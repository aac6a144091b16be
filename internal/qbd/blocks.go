package qbd

import (
	"fmt"
	"math"

	"bgperf/internal/mat"
	"bgperf/internal/obs"
)

// Phase blocks. Above the boundary of the paper's chain no background
// service can start, so phases that serve background work are never
// re-entered and the background count never falls while a foreground job is
// served: the support graph of A = A0+A1+A2 splits into many small strongly
// connected components (SCCs) with one-way edges between them. Listing the
// phases SCC by SCC, in topological order, makes A0, A1 and A2 — and with
// them G and R — block upper triangular, so G is found block by block: the
// diagonal blocks by cyclic reduction on their own sub-blocks, the blocks
// above them by small Sylvester equations.

// phaseBlocks partitions the phases of the generator a by the strongly
// connected components of its support graph (Tarjan's algorithm,
// iterative). The blocks come in topological order — every edge between two
// blocks points to a later one — with ties broken by the smallest phase
// index, and each block lists its phases ascending. perm concatenates the
// blocks, block b is perm[start[b]:start[b+1]], and sink[b] reports that
// block b has no edge leaving it (a closed class of a).
func phaseBlocks(a *mat.Matrix) (perm, start []int, sink []bool) {
	n := a.Rows()
	nnz := 0
	for i := 0; i < n; i++ {
		for j, v := range a.RowView(i) {
			if j != i && v > 0 {
				nnz++
			}
		}
	}
	// One arena holds every scratch slice of fixed size.
	arena := make([]int, 11*n+2+nnz)
	take := func(k int) []int {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	// Support graph in CSR form.
	adjStart, adj := take(n+1), take(nnz)[:0]
	for i := 0; i < n; i++ {
		for j, v := range a.RowView(i) {
			if j != i && v > 0 {
				adj = append(adj, j)
			}
		}
		adjStart[i+1] = len(adj)
	}

	const unvisited, onStack = -1, -2
	var (
		index   = take(n)
		lowlink = take(n)
		comp    = take(n) // component, or onStack while on the stack
		stack   = take(n)[:0]
		frames  = take(2 * n)[:0] // (vertex, next edge) pairs of the DFS
		nextIdx int
		ncomp   int
	)
	for i := range index {
		index[i] = unvisited
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], root, adjStart[root])
		index[root], lowlink[root] = nextIdx, nextIdx
		nextIdx++
		stack = append(stack, root)
		comp[root] = onStack
		for len(frames) > 0 {
			v, ei := frames[len(frames)-2], frames[len(frames)-1]
			if ei < adjStart[v+1] {
				frames[len(frames)-1]++
				w := adj[ei]
				if index[w] == unvisited {
					index[w], lowlink[w] = nextIdx, nextIdx
					nextIdx++
					stack = append(stack, w)
					comp[w] = onStack
					frames = append(frames, w, adjStart[w])
				} else if comp[w] == onStack && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-2]
			if len(frames) > 0 {
				if parent := frames[len(frames)-2]; lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}

	// Kahn's algorithm on the condensation, always taking the ready block
	// whose smallest phase is lowest. Phases are scanned ascending, so the
	// first phase seen of a component is its smallest (its key).
	key := lowlink[:ncomp] // Tarjan's scratch is free again
	size := index[:ncomp]
	clear(size)
	indeg := take(ncomp)
	for v := 0; v < n; v++ {
		c := comp[v]
		if size[c] == 0 {
			key[c] = v
		}
		size[c]++
		for _, w := range adj[adjStart[v]:adjStart[v+1]] {
			if comp[w] != c {
				indeg[comp[w]]++
			}
		}
	}
	// Members of each component, ascending, in CSR form.
	memStart := take(ncomp + 1)
	for c, s := range size {
		memStart[c+1] = memStart[c] + s
	}
	members := take(n)
	fill := append(take(ncomp)[:0], memStart[:ncomp]...)
	for v := 0; v < n; v++ {
		members[fill[comp[v]]] = v
		fill[comp[v]]++
	}

	perm = make([]int, 0, n)
	start = make([]int, 1, ncomp+1)
	sink = make([]bool, ncomp)
	ready := fill[:0]
	for c := 0; c < ncomp; c++ {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	for len(ready) > 0 {
		k := 0
		for i, c := range ready {
			if key[c] < key[ready[k]] {
				k = i
			}
		}
		c := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		b := len(start) - 1
		sink[b] = true
		for _, v := range members[memStart[c]:memStart[c+1]] {
			perm = append(perm, v)
			for _, w := range adj[adjStart[v]:adjStart[v+1]] {
				if cw := comp[w]; cw != c {
					sink[b] = false
					if indeg[cw]--; indeg[cw] == 0 {
						ready = append(ready, cw)
					}
				}
			}
		}
		start = append(start, len(perm))
	}
	return perm, start, sink
}

// kroneckerBudget bounds the block solve's Sylvester work: it runs while
// Σ_{i<j} (d_i·d_j)³ over the block orders d stays within kroneckerBudget·m³
// for a level of order m. Whole-level cyclic reduction costs about 13·m³
// flops per iteration and takes 10–20 iterations, against (2/3)·(d_i·d_j)³
// per Kronecker factorization, so the block solve is the cheaper one well
// inside the budget; beyond it — two large SCCs, whose Kronecker system
// would outgrow the level itself — the whole level is solved as one block.
const kroneckerBudget = 64

// setBlocks partitions the phases of the level with phase generator a: the
// SCC blocks of phaseBlocks when their Sylvester systems fit
// kroneckerBudget, otherwise one block in the original order. The closed
// classes always come from the SCCs.
func (p *Process) setBlocks(a *mat.Matrix) {
	perm, start, sink := phaseBlocks(a)
	var sum3, sum6 float64 // Σ d³ and Σ d⁶ give Σ_{i<j} (d_i·d_j)³
	for b, closed := range sink {
		s, e := start[b], start[b+1]
		if closed {
			p.closed = append(p.closed, perm[s:e])
		}
		d3 := math.Pow(float64(e-s), 3)
		sum3 += d3
		sum6 += d3 * d3
	}
	m := float64(p.order)
	if (sum3*sum3-sum6)/2 > kroneckerBudget*m*m*m {
		perm = make([]int, p.order)
		for i := range perm {
			perm[i] = i
		}
		start = []int{0, p.order}
	}
	p.perm, p.start = perm, start
	p.identityPerm = true
	for i, v := range perm {
		if v != i {
			p.identityPerm = false
			break
		}
	}
}

// blockRange returns the span [s, e) of block b in block (permuted) order.
func (p *Process) blockRange(b int) (s, e int) { return p.start[b], p.start[b+1] }

// permuted returns a in block order: entry (r, c) is a(perm[r], perm[c]).
// When the block order is the original one it returns a itself.
func (p *Process) permuted(a *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	if p.identityPerm {
		return a
	}
	pa := ws.MatrixUninit(p.order, p.order)
	for r, pr := range p.perm {
		src, dst := a.RowView(pr), pa.RowView(r)
		for c, pc := range p.perm {
			dst[c] = src[pc]
		}
	}
	return pa
}

// releasePermuted hands permuted's copies back to ws.
func (p *Process) releasePermuted(ws *mat.Workspace, ms ...*mat.Matrix) {
	if !p.identityPerm {
		ws.Release(ms...)
	}
}

// gWS computes the first-passage matrix G — entry (i,j) is the probability
// that the process, started in phase i of level n+1, first enters level n in
// phase j — block by block over the phase blocks, last block first. Each
// diagonal block G_bb comes from cyclic reduction on the uniformized
// sub-blocks of block b (the phases of a block, once left, are never
// re-entered); the blocks to its right solve Sylvester equations
// (solveRow). ws optionally supplies every scratch buffer and o optionally
// receives a convergence trace (nil is valid for both). It returns G in the
// original phase order, the largest per-block iteration count — o receives
// that block's trace — and the residual max |1 − rowsum(G)|.
func (p *Process) gWS(ws *mat.Workspace, o obs.Observer) (*mat.Matrix, int, float64, error) {
	m := p.order
	nb := len(p.start) - 1
	a0, a1, a2 := p.permuted(p.a0, ws), p.permuted(p.a1, ws), p.permuted(p.a2, ws)
	defer p.releasePermuted(ws, a0, a1, a2)
	var trace, best []float64
	if o != nil {
		trace, best = ws.Vector(maxCRIter), ws.Vector(maxCRIter)
		defer func() { ws.ReleaseVector(trace, best) }()
	}
	gp := ws.Matrix(m, m) // G in block order; zero below the diagonal blocks
	var g2 *mat.Matrix    // G² in block order, filled by solveRow
	if nb > 1 {
		g2 = ws.Matrix(m, m)
		defer ws.Release(g2)
	}
	sylv := &sylvesterWS{ws: ws}
	defer sylv.release()

	maxIters := 0
	for b := nb - 1; b >= 0; b-- {
		s, e := p.blockRange(b)
		gbb, iters, err := diagonalG(a0, a1, a2, s, e, ws, trace)
		if o != nil && (iters > maxIters || err != nil) {
			trace, best = best, trace
		}
		maxIters = max(maxIters, iters)
		if err != nil {
			emitTrace(o, best, iters)
			return nil, iters, 0, err
		}
		for r := s; r < e; r++ {
			copy(gp.RowView(r)[s:e], gbb.RowView(r-s))
		}
		ws.Release(gbb)
		if nb > 1 {
			if err := p.solveRow(b, a0, a1, a2, gp, g2, sylv); err != nil {
				return nil, maxIters, 0, err
			}
		}
	}
	emitTrace(o, best, maxIters)

	g := gp
	if !p.identityPerm {
		g = ws.MatrixUninit(m, m)
		for r, pr := range p.perm {
			src, dst := gp.RowView(r), g.RowView(pr)
			for c, pc := range p.perm {
				dst[pc] = src[c]
			}
		}
		ws.Release(gp)
	}
	sums := ws.Vector(m)
	defect := 0.0
	for _, rs := range g.RowSumsInto(sums) {
		if d := math.Abs(1 - rs); d > defect {
			defect = d
		}
	}
	ws.ReleaseVector(sums)
	return g, maxIters, defect, nil
}

// emitTrace reports the first n residuals of trace to o.
func emitTrace(o obs.Observer, trace []float64, n int) {
	if o == nil {
		return
	}
	for i, r := range trace[:n] {
		o.RIteration(i+1, r)
	}
}

// diagonalG returns the diagonal block G_bb for the phases [s, e) of the
// block-ordered repeating blocks: cyclic reduction on the block's sub-blocks,
// uniformized by the block's own largest exit rate. Rates leaving the block
// make its chain substochastic, which cyclic reduction handles as it does a
// transient chain. The result is drawn from ws.
func diagonalG(a0, a1, a2 *mat.Matrix, s, e int, ws *mat.Workspace, trace []float64) (*mat.Matrix, int, error) {
	theta := 0.0
	for i := s; i < e; i++ {
		if d := -a1.At(i, i); d > theta {
			theta = d
		}
	}
	if theta == 0 {
		return nil, 0, fmt.Errorf("%w: zero generator", ErrInvalid)
	}
	theta *= 1 + 1e-12
	inv := 1 / theta
	d := e - s
	b0, b1, b2 := ws.MatrixUninit(d, d), ws.MatrixUninit(d, d), ws.MatrixUninit(d, d)
	for r := 0; r < d; r++ {
		r0, r1, r2 := a0.RowView(s + r)[s:e], a1.RowView(s + r)[s:e], a2.RowView(s + r)[s:e]
		d0, d1, d2 := b0.RowView(r), b1.RowView(r), b2.RowView(r)
		for c := range d0 {
			d0[c] = r0[c] * inv
			d1[c] = r1[c] * inv
			d2[c] = r2[c] * inv
		}
		d1[r]++
	}
	g, iters, err := cyclicReductionObs(b0, b1, b2, ws, trace)
	ws.Release(b0, b1, b2)
	return g, iters, err
}

// solveRow fills block row i of gp to the right of its diagonal block, and
// block row i of g2 = G², given G_ii and every later block row of both.
// Splitting A2 + A1·G + A0·G² = 0 by blocks, each G_ij (j > i) solves the
// Sylvester equation
//
//	(A1_ii + A0_ii·G_ii)·X + A0_ii·X·G_jj = −(A2_ij + Σ_{k>i} A1_ik·G_kj
//	        + Σ_{k>i} A0_ik·(G²)_kj + A0_ii·Σ_{i<l<j} G_il·G_lj).
//
// The blocks are taken j ascending, so the in-row sum only involves blocks
// already solved; it accumulates in g2's row i, which ends as
// Σ_{l≥i} G_il·G_l·, that is (G²)_i·.
func (p *Process) solveRow(i int, a0, a1, a2, gp, g2 *mat.Matrix, sylv *sylvesterWS) error {
	m := p.order
	si, ei := p.blockRange(i)
	di := ei - si
	// The right-hand sides of the whole row, less the in-row sum, into gp.
	for r := si; r < ei; r++ {
		dst := gp.RowView(r)[ei:]
		copy(dst, a2.RowView(r)[ei:])
		r1, r0 := a1.RowView(r), a0.RowView(r)
		for k := ei; k < m; k++ {
			if v := r1[k]; v != 0 {
				axpy(dst, v, gp.RowView(k)[ei:])
			}
			if v := r0[k]; v != 0 {
				axpy(dst, v, g2.RowView(k)[ei:])
			}
		}
		for c, v := range dst {
			dst[c] = -v
		}
	}
	// M = A1_ii + A0_ii·G_ii.
	mi := sylv.ws.MatrixUninit(di, di)
	defer sylv.ws.Release(mi)
	for a := 0; a < di; a++ {
		dst, r0 := mi.RowView(a), a0.RowView(si + a)[si:ei]
		copy(dst, a1.RowView(si + a)[si:ei])
		for l, v := range r0 {
			if v != 0 {
				axpy(dst, v, gp.RowView(si + l)[si:ei])
			}
		}
	}
	for j := i + 1; j < len(p.start)-1; j++ {
		sj, ej := p.blockRange(j)
		dj := ej - sj
		n := di * dj
		rhs := sylv.get(n)
		nonzero := false
		for a := 0; a < di; a++ {
			r0 := a0.RowView(si + a)[si:ei]
			for b := 0; b < dj; b++ {
				v := gp.At(si+a, sj+b)
				for c, w := range r0 {
					v -= w * g2.At(si+c, sj+b)
				}
				rhs[a*dj+b] = v
				nonzero = nonzero || v != 0
			}
		}
		if !nonzero {
			// K·x = 0 has only the zero solution: G_ij = 0, nothing to add.
			for a := 0; a < di; a++ {
				clear(gp.RowView(si + a)[sj:ej])
			}
			continue
		}
		// Kronecker form, X row-major: K = M ⊗ I + A0_ii ⊗ G_jjᵀ.
		for a := 0; a < di; a++ {
			r0 := a0.RowView(si + a)[si:ei]
			for b := 0; b < dj; b++ {
				krow := sylv.k.RowView(a*dj + b)
				for c := 0; c < di; c++ {
					mac, nac := mi.At(a, c), r0[c]
					for e := 0; e < dj; e++ {
						v := nac * gp.At(sj+e, sj+b)
						if b == e {
							v += mac
						}
						krow[c*dj+e] = v
					}
				}
			}
		}
		if err := mat.FactorizeInto(sylv.lu, sylv.k); err != nil {
			return fmt.Errorf("qbd: G block (%d,%d): %w", i, j, err)
		}
		sylv.lu.SolveVecInto(rhs, rhs)
		for a := 0; a < di; a++ {
			copy(gp.RowView(si + a)[sj:ej], rhs[a*dj:(a+1)*dj])
			// In-row sum: g2_i· += G_ij·G_j· (columns from block j on).
			acc := g2.RowView(si + a)[sj:]
			for b, x := range rhs[a*dj : (a+1)*dj] {
				if x != 0 {
					axpy(acc, x, gp.RowView(sj + b)[sj:])
				}
			}
		}
	}
	// Close (G²)_i· = G_ii·G_i· + Σ_{l>i} G_il·G_l·.
	for a := si; a < ei; a++ {
		dst := g2.RowView(a)[si:]
		for l, v := range gp.RowView(a)[si:ei] {
			if v != 0 {
				axpy(dst, v, gp.RowView(si + l)[si:])
			}
		}
	}
	return nil
}

// axpy sets dst += a·x over len(dst) entries.
func axpy(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for i, v := range x {
		dst[i] += a * v
	}
}

// sylvesterWS holds the Kronecker system of solveRow — matrix, LU and
// right-hand side — for the current order, drawn from ws and swapped only
// when the order changes.
type sylvesterWS struct {
	ws  *mat.Workspace
	n   int
	k   *mat.Matrix
	lu  *mat.LU
	rhs []float64
}

// get readies the buffers for order n and returns the right-hand side.
func (s *sylvesterWS) get(n int) []float64 {
	if s.n != n {
		s.release()
		s.n, s.k, s.lu, s.rhs = n, s.ws.MatrixUninit(n, n), s.ws.LU(n), s.ws.Vector(n)
	}
	return s.rhs
}

func (s *sylvesterWS) release() {
	if s.n == 0 {
		return
	}
	s.ws.Release(s.k)
	s.ws.ReleaseLU(s.lu)
	s.ws.ReleaseVector(s.rhs)
	s.n = 0
}
