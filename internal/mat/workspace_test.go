package mat

import (
	"math"
	"math/rand"
	"testing"

	"bgperf/internal/raceflag"
)

// randMat returns a rows×cols matrix of uniform(−1,1) entries, with about
// sparsity of them forced to exactly zero (the naive kernel's skip path).
func randMat(rng *rand.Rand, rows, cols int, sparsity float64) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < sparsity {
				continue
			}
			m.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return m
}

// randVec returns a length-n vector of uniform(−1,1) entries.
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// diagDominant returns a random diagonally dominant n×n matrix (comfortably
// nonsingular, so factorization properties hold).
func diagDominant(rng *rand.Rand, n int) *Matrix {
	m := randMat(rng, n, n, 0)
	for i := 0; i < n; i++ {
		m.Set(i, i, float64(n)+1+rng.Float64())
	}
	return m
}

func requireClose(t *testing.T, got, want *Matrix, tol float64, what string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if d := math.Abs(got.At(i, j) - want.At(i, j)); d > tol {
				t.Fatalf("%s: entry (%d,%d) differs by %g: got %g want %g", what, i, j, d, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func requireCloseVec(t *testing.T, got, want []float64, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("%s: entry %d differs by %g", what, i, d)
		}
	}
}

// intoShapes is the random shape pool for the *Into property tests: a spread
// of small, rectangular, and above-threshold sizes.
var intoShapes = [][2]int{{1, 1}, {3, 5}, {7, 7}, {12, 4}, {23, 23}, {24, 24}, {25, 31}, {40, 40}}

// TestIntoVariantsMatchAllocating checks every *Into variant against its
// allocating counterpart to 1e-15 across random shapes. The pairs share
// their arithmetic order, so they must agree essentially exactly.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const tol = 1e-15
	for _, shape := range intoShapes {
		r, c := shape[0], shape[1]
		a := randMat(rng, r, c, 0.2)
		b := randMat(rng, r, c, 0.2)

		requireClose(t, New(r, c).SubInto(a, b), a.SubMat(b), tol, "SubInto")
		requireClose(t, New(r, c).ScaleInto(a, 0.37), a.Clone().Scale(0.37), tol, "ScaleInto")
		requireClose(t, a.CloneInto(New(r, c)), a.Clone(), tol, "CloneInto")

		x := randVec(rng, c)
		requireCloseVec(t, a.MulVecInto(make([]float64, r), x), a.MulVec(x), tol, "MulVecInto")
		y := randVec(rng, r)
		requireCloseVec(t, a.VecMulInto(make([]float64, c), y), a.VecMul(y), tol, "VecMulInto")
		requireCloseVec(t, a.RowSumsInto(make([]float64, r)), a.RowSums(), tol, "RowSumsInto")

		// Aliased destinations, where documented as allowed.
		neg := a.Clone()
		neg.ScaleInto(neg, -1)
		requireClose(t, neg, a.Clone().Scale(-1), tol, "ScaleInto aliasing receiver")
	}
}

// TestLUIntoVariantsMatchAllocating checks FactorizeInto, SolveVecInto,
// SolveMatInto, and InverseInto against Factorize/SolveVec/SolveMat/Inverse
// to 1e-15 across random nonsingular systems, including buffer reuse across
// differently-valued matrices of the same size.
func TestLUIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const tol = 1e-15
	f := &LU{} // reused across every system below, growing as needed
	for _, n := range []int{1, 2, 5, 9, 17, 24, 33} {
		for trial := 0; trial < 3; trial++ {
			a := diagDominant(rng, n)
			want, err := Factorize(a)
			if err != nil {
				t.Fatalf("n=%d: Factorize: %v", n, err)
			}
			if err := FactorizeInto(f, a); err != nil {
				t.Fatalf("n=%d: FactorizeInto: %v", n, err)
			}

			bvec := randVec(rng, n)
			requireCloseVec(t, f.SolveVecInto(make([]float64, n), bvec), want.SolveVec(bvec), tol, "SolveVecInto")
			// Aliased right-hand side.
			aliased := append([]float64(nil), bvec...)
			f.SolveVecInto(aliased, aliased)
			requireCloseVec(t, aliased, want.SolveVec(bvec), tol, "SolveVecInto aliased")

			bm := randMat(rng, n, 3, 0)
			requireClose(t, f.SolveMatInto(New(n, 3), bm), want.SolveMat(bm), tol, "SolveMatInto")

			wantInv, err := Inverse(a)
			if err != nil {
				t.Fatalf("n=%d: Inverse: %v", n, err)
			}
			requireClose(t, f.InverseInto(New(n, n)), wantInv, tol, "InverseInto")
		}
	}
}

// TestWorkspaceReuse checks the pooling contract: released buffers come back
// (zeroed) for the same shape, different shapes stay distinct, and a nil
// workspace degrades to plain allocation.
func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Matrix(3, 4)
	m.Set(1, 2, 42)
	ws.Release(m)
	got := ws.Matrix(3, 4)
	if got != m {
		t.Fatal("same-shape acquisition did not reuse the released buffer")
	}
	if got.At(1, 2) != 0 {
		t.Fatal("reused buffer was not zeroed")
	}
	if other := ws.Matrix(4, 3); other == m {
		t.Fatal("transposed shape must not reuse a 3x4 buffer")
	}

	id := ws.Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity entry (%d,%d) = %g", i, j, id.At(i, j))
			}
		}
	}

	v := ws.Vector(5)
	v[3] = 7
	ws.ReleaseVector(v)
	if got := ws.Vector(5); got[3] != 0 {
		t.Fatal("reused vector was not zeroed")
	}

	f := ws.LU(4)
	ws.ReleaseLU(f)
	if got := ws.LU(4); got != f {
		t.Fatal("same-size LU was not reused")
	}

	var nilWS *Workspace
	if nm := nilWS.Matrix(2, 2); nm == nil || nm.Rows() != 2 {
		t.Fatal("nil workspace must allocate")
	}
	nilWS.Release(New(2, 2))             // must not panic
	nilWS.ReleaseVector(nilWS.Vector(3)) // must not panic
	nilWS.ReleaseLU(nilWS.LU(2))         // must not panic
}

// TestIntoKernelsZeroAlloc pins the allocation-free contract of the *Into
// operations and of LU reuse via FactorizeInto — the property the QBD hot
// loops are built on.
func TestIntoKernelsZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	const n = 24
	a := diagDominant(rng, n)
	b := randMat(rng, n, n, 0)
	dst := New(n, n)
	x := randVec(rng, n)
	vdst := make([]float64, n)
	f := NewLU(n)

	checks := []struct {
		name string
		fn   func()
	}{
		{"SubInto", func() { dst.SubInto(a, b) }},
		{"ScaleInto", func() { dst.ScaleInto(a, 2) }},
		{"CloneInto", func() { a.CloneInto(dst) }},
		{"MulInto", func() { dst.MulInto(a, b) }},
		{"MulVecInto", func() { a.MulVecInto(vdst, x) }},
		{"VecMulInto", func() { a.VecMulInto(vdst, x) }},
		{"RowSumsInto", func() { a.RowSumsInto(vdst) }},
		{"FactorizeInto+InverseInto", func() {
			if err := FactorizeInto(f, a); err != nil {
				t.Fatal(err)
			}
			f.InverseInto(dst)
		}},
		{"SolveVecInto", func() { f.SolveVecInto(vdst, x) }},
	}
	for _, c := range checks {
		c.fn() // warm up one-time growth
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s allocated %.0f times per run, want 0", c.name, allocs)
		}
	}

	ws := NewWorkspace()
	ws.Release(ws.Matrix(n, n))
	roundTrip := func() { ws.Release(ws.Matrix(n, n)) }
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs != 0 {
		t.Errorf("workspace matrix round trip allocated %.0f times per run, want 0", allocs)
	}
}

// TestSolveLeftAllocs pins that SolveLeft factors a itself: it allocates
// what Factorize does plus the answer, with no transposed copy, and its
// answer is bit-identical to SolveLeftInto on the same factorization.
func TestSolveLeftAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	rng := rand.New(rand.NewSource(4))
	const n = 24
	a := diagDominant(rng, n)
	b := randVec(rng, n)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	want := f.SolveLeftInto(make([]float64, n), b)
	x, err := SolveLeft(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v, SolveLeftInto gives %v", i, x[i], want[i])
		}
	}
	factor := testing.AllocsPerRun(20, func() { Factorize(a) })
	solve := testing.AllocsPerRun(20, func() { SolveLeft(a, b) })
	if solve != factor+1 {
		t.Errorf("SolveLeft allocated %.0f times per run, want Factorize's %.0f plus the answer", solve, factor)
	}
}
