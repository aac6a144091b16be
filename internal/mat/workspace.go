package mat

import "sync"

// Workspace owns reusable scratch matrices, vectors, and LU factorizations,
// pooled by shape. Solver hot loops acquire buffers from a Workspace instead
// of allocating, run their iterations allocation-free, and release the
// buffers when a differently-shaped stage can reuse the memory.
//
// Usage rules:
//
//   - A Workspace is safe for concurrent borrowers: acquisitions and releases
//     from multiple goroutines are serialized by an internal mutex, so a
//     workspace may be handed between goroutines (the process-wide pool
//     below passes workspaces across concurrent solves). Only the pool
//     bookkeeping is synchronized — the buffers themselves are owned by
//     exactly one borrower between acquisition and release.
//   - Matrix and Vector return zeroed buffers; LU returns a factorization
//     shell ready for FactorizeInto.
//   - Release hands a buffer back for reuse. Releasing a buffer twice, or
//     using it after release, corrupts later acquisitions — release only what
//     you own, exactly once.
//   - Buffers that outlive the workspace scope (values returned to callers)
//     must simply not be released; the workspace never takes a buffer back on
//     its own.
//   - A nil *Workspace is valid everywhere and degrades to plain allocation,
//     so APIs can thread an optional workspace without branching.
type Workspace struct {
	mu   sync.Mutex
	mats map[int64][]*Matrix
	vecs map[int][][]float64
	lus  map[int][]*LU

	stats WorkspaceStats
}

// WorkspaceStats counts pool hits (acquisitions served from a released
// buffer) and misses (fresh allocations) per buffer kind. Counting is plain
// field increments on the acquisition paths — no allocation, no branches —
// so it is always on; Stats exposes the totals to the observability layer.
type WorkspaceStats struct {
	MatrixHits, MatrixMisses int64
	VectorHits, VectorMisses int64
	LUHits, LUMisses         int64
}

// Stats returns the accumulated pool statistics (zero for a nil workspace).
func (w *Workspace) Stats() WorkspaceStats {
	if w == nil {
		return WorkspaceStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		mats: make(map[int64][]*Matrix),
		vecs: make(map[int][][]float64),
		lus:  make(map[int][]*LU),
	}
}

// wsPool recycles whole workspaces — and with them every buffer ever
// released into one — across solver invocations. A cold workspace's first
// solve allocates its working set; subsequent solves of same-shaped models
// run entirely on pooled memory, which removes the dominant allocation and
// page-zeroing cost of repeated solves (parameter sweeps, the check harness,
// the daemon's request loop).
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// AcquireWorkspace returns a workspace from the process-wide pool (or a fresh
// one), with its statistics reset so Stats reports per-acquisition counts.
// Buffers retained inside it from earlier uses are reused by shape as usual.
// Pair with ReleaseWorkspace; a workspace must not be used after release.
//
// Everything that escapes the acquiring solve (results handed to callers)
// must be allocated outside the workspace: after ReleaseWorkspace the next
// acquirer may hand out the same buffers.
func AcquireWorkspace() *Workspace {
	w := wsPool.Get().(*Workspace)
	w.mu.Lock()
	w.stats = WorkspaceStats{}
	w.mu.Unlock()
	return w
}

// ReleaseWorkspace returns w to the process-wide pool. Nil is a no-op.
func ReleaseWorkspace(w *Workspace) {
	if w == nil {
		return
	}
	wsPool.Put(w)
}

func matKey(rows, cols int) int64 { return int64(rows)<<32 | int64(uint32(cols)) }

// Matrix returns a zeroed rows×cols matrix, reusing a released buffer of the
// same shape when one is available.
func (w *Workspace) Matrix(rows, cols int) *Matrix {
	if w == nil {
		return New(rows, cols)
	}
	key := matKey(rows, cols)
	w.mu.Lock()
	if pool := w.mats[key]; len(pool) > 0 {
		m := pool[len(pool)-1]
		w.mats[key] = pool[:len(pool)-1]
		w.stats.MatrixHits++
		w.mu.Unlock()
		m.Zero()
		return m
	}
	w.stats.MatrixMisses++
	w.mu.Unlock()
	return New(rows, cols)
}

// MatrixUninit returns a rows×cols matrix with unspecified contents, reusing
// a released buffer of the same shape when one is available. It is the
// acquisition for destinations that are fully overwritten before any read —
// MulInto, ScaleInto, SubInto, CloneInto, SolveMatInto, and InverseInto
// targets — where Matrix's zeroing is pure overhead. Callers that
// read any element before writing it must use Matrix instead.
func (w *Workspace) MatrixUninit(rows, cols int) *Matrix {
	if w == nil {
		return New(rows, cols)
	}
	key := matKey(rows, cols)
	w.mu.Lock()
	if pool := w.mats[key]; len(pool) > 0 {
		m := pool[len(pool)-1]
		w.mats[key] = pool[:len(pool)-1]
		w.stats.MatrixHits++
		w.mu.Unlock()
		return m
	}
	w.stats.MatrixMisses++
	w.mu.Unlock()
	return New(rows, cols)
}

// Identity returns an n×n identity matrix drawn from the workspace.
func (w *Workspace) Identity(n int) *Matrix {
	m := w.Matrix(n, n)
	for i := 0; i < n; i++ {
		m.a[i*n+i] = 1
	}
	return m
}

// Release returns matrices to the workspace for reuse. Nil entries are
// ignored; releasing into a nil workspace is a no-op.
func (w *Workspace) Release(ms ...*Matrix) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range ms {
		if m == nil {
			continue
		}
		key := matKey(m.rows, m.cols)
		w.mats[key] = append(w.mats[key], m)
	}
}

// Vector returns a zeroed length-n vector, reusing a released one when
// available.
func (w *Workspace) Vector(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	w.mu.Lock()
	if pool := w.vecs[n]; len(pool) > 0 {
		v := pool[len(pool)-1]
		w.vecs[n] = pool[:len(pool)-1]
		w.stats.VectorHits++
		w.mu.Unlock()
		for i := range v {
			v[i] = 0
		}
		return v
	}
	w.stats.VectorMisses++
	w.mu.Unlock()
	return make([]float64, n)
}

// ReleaseVector returns vectors to the workspace for reuse.
func (w *Workspace) ReleaseVector(vs ...[]float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, v := range vs {
		if v == nil {
			continue
		}
		w.vecs[len(v)] = append(w.vecs[len(v)], v)
	}
}

// LU returns an n×n factorization shell (storage and pivot buffers
// preallocated) ready for FactorizeInto, reusing a released one when
// available.
func (w *Workspace) LU(n int) *LU {
	if w == nil {
		return NewLU(n)
	}
	w.mu.Lock()
	if pool := w.lus[n]; len(pool) > 0 {
		f := pool[len(pool)-1]
		w.lus[n] = pool[:len(pool)-1]
		w.stats.LUHits++
		w.mu.Unlock()
		return f
	}
	w.stats.LUMisses++
	w.mu.Unlock()
	return NewLU(n)
}

// ReleaseLU returns a factorization shell to the workspace for reuse.
func (w *Workspace) ReleaseLU(fs ...*LU) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range fs {
		if f == nil || f.lu == nil {
			continue
		}
		n := f.lu.rows
		w.lus[n] = append(w.lus[n], f)
	}
}
