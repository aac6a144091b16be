package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewZeroValued(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("got %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Errorf("At(0,1) = %v, want 7", m.At(0, 1))
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I[%d][%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := MustFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares backing storage with original")
	}
}

func TestRowAndRowView(t *testing.T) {
	m := MustFromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 100 // must not affect m
	if m.At(1, 0) != 3 {
		t.Error("Row returned a view, want a copy")
	}
	m.RowView(1)[0] = 5 // writes through
	if m.At(1, 0) != 5 {
		t.Error("RowView returned a copy, want a view")
	}
}

func TestZeroAndScale(t *testing.T) {
	m := MustFromRows([][]float64{{1, -2}})
	m.Scale(3)
	if m.At(0, 1) != -6 {
		t.Errorf("Scale: got %v, want -6", m.At(0, 1))
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Error("Zero did not clear entries")
	}
}

func TestAddSubMat(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	b := MustFromRows([][]float64{{5, 6}, {7, 8}})
	sum := a.AddMat(b)
	diff := sum.SubMat(b)
	if !diff.Equalf(a, 1e-15) {
		t.Error("(a+b)-b != a")
	}
	c := a.Clone()
	c.AddInPlace(b)
	if !c.Equalf(sum, 0) {
		t.Error("AddInPlace disagrees with AddMat")
	}
}

func TestMul(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	b := MustFromRows([][]float64{{0, 1}, {1, 0}})
	got := a.Mul(b)
	want := MustFromRows([][]float64{{2, 1}, {4, 3}})
	if !got.Equalf(want, 1e-15) {
		t.Errorf("a*b = %v, want %v", got, want)
	}
}

func TestMulRectangular(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2, 3}})     // 1x3
	b := MustFromRows([][]float64{{1}, {2}, {3}}) // 3x1
	got := a.Mul(b)                               // 1x1
	if got.Rows() != 1 || got.Cols() != 1 || got.At(0, 0) != 14 {
		t.Errorf("a*b = %v, want [[14]]", got)
	}
}

func TestTranspose(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 {
		t.Errorf("transpose wrong: %v", at)
	}
}

func TestVecMulMulVec(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	x := []float64{1, 1}
	left := a.VecMul(x) // x*a = [4 6]
	if left[0] != 4 || left[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", left)
	}
	right := a.MulVec(x) // a*x = [3 7]
	if right[0] != 3 || right[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", right)
	}
}

func TestRowSums(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {-3, 3}})
	s := a.RowSums()
	if s[0] != 3 || s[1] != 0 {
		t.Errorf("RowSums = %v, want [3 0]", s)
	}
}

func TestNorms(t *testing.T) {
	a := MustFromRows([][]float64{{1, -5}, {2, 2}})
	if a.MaxAbs() != 5 {
		t.Errorf("MaxAbs = %v, want 5", a.MaxAbs())
	}
	if a.NormInf() != 6 {
		t.Errorf("NormInf = %v, want 6", a.NormInf())
	}
}

func TestIsFinite(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}})
	if !a.IsFinite() {
		t.Error("finite matrix reported non-finite")
	}
	a.Set(0, 0, math.NaN())
	if a.IsFinite() {
		t.Error("NaN matrix reported finite")
	}
	a.Set(0, 0, math.Inf(1))
	if a.IsFinite() {
		t.Error("Inf matrix reported finite")
	}
}

func TestKron(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	b := MustFromRows([][]float64{{0, 5}, {6, 7}})
	got := a.Kron(b)
	want := MustFromRows([][]float64{
		{0, 5, 0, 10},
		{6, 7, 12, 14},
		{0, 15, 0, 20},
		{18, 21, 24, 28},
	})
	if !got.Equalf(want, 1e-15) {
		t.Errorf("Kron =\n%v, want\n%v", got, want)
	}
}

func TestKronIdentity(t *testing.T) {
	// I ⊗ A is block diagonal with A blocks; (I⊗A)(I⊗B) = I⊗(AB).
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	b := MustFromRows([][]float64{{2, 0}, {1, 1}})
	id := Identity(3)
	lhs := id.Kron(a).Mul(id.Kron(b))
	rhs := id.Kron(a.Mul(b))
	if !lhs.Equalf(rhs, 1e-12) {
		t.Error("(I⊗A)(I⊗B) != I⊗(AB)")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := MustFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 0.8, 1e-12) || !almostEqual(x[1], 1.4, 1e-12) {
		t.Errorf("x = %v, want [0.8 1.4]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system accepted")
	}
}

func TestSolveLeft(t *testing.T) {
	a := MustFromRows([][]float64{{2, 1}, {0, 3}})
	// x*a = [2 7] => x = [1 2]
	x, err := SolveLeft(a, []float64{2, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the first diagonal entry forces a row swap.
	a := MustFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	a := MustFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).Equalf(Identity(2), 1e-12) {
		t.Error("a * a^-1 != I")
	}
}

func TestFactorizeNonSquare(t *testing.T) {
	if _, err := Factorize(New(2, 3)); err == nil {
		t.Fatal("non-square factorization accepted")
	}
}

func TestSolveMat(t *testing.T) {
	a := MustFromRows([][]float64{{2, 0}, {0, 4}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveMat(Identity(2))
	want := MustFromRows([][]float64{{0.5, 0}, {0, 0.25}})
	if !x.Equalf(want, 1e-15) {
		t.Errorf("inverse via SolveMat = %v, want %v", x, want)
	}
}

func TestSpectralRadiusDiagonal(t *testing.T) {
	a := MustFromRows([][]float64{{0.2, 0, 0}, {0, 0.9, 0}, {0, 0, 0.5}})
	r := SpectralRadius(a, 1e-12, 1000)
	if !almostEqual(r, 0.9, 1e-9) {
		t.Errorf("spectral radius = %v, want 0.9", r)
	}
}

func TestSpectralRadiusStochastic(t *testing.T) {
	// Row-stochastic matrices have spectral radius exactly 1.
	p := MustFromRows([][]float64{{0.3, 0.7}, {0.6, 0.4}})
	r := SpectralRadius(p, 1e-12, 1000)
	if !almostEqual(r, 1, 1e-9) {
		t.Errorf("spectral radius = %v, want 1", r)
	}
}

func TestSpectralRadiusZero(t *testing.T) {
	if r := SpectralRadius(New(3, 3), 1e-12, 100); r != 0 {
		t.Errorf("spectral radius of zero matrix = %v, want 0", r)
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := Sum([]float64{1, 2, -0.5}); got != 2.5 {
		t.Errorf("Sum = %v, want 2.5", got)
	}
	v := ScaleVec([]float64{1, 2}, 2)
	if v[1] != 4 {
		t.Errorf("ScaleVec = %v, want [2 4]", v)
	}
}

// randomWellConditioned builds an n×n strictly diagonally dominant matrix,
// which is guaranteed nonsingular.
func randomWellConditioned(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		var rowAbs float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			m.Set(i, j, v)
			rowAbs += math.Abs(v)
		}
		m.Set(i, i, rowAbs+1+rng.Float64())
	}
	return m
}

func TestQuickSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%8) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomWellConditioned(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSolveLeftInto checks the row-vector solve x·A = b against its
// residual on matrices that need pivoting, including the aliased dst = b
// form.
func TestQuickSolveLeftInto(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%12) + 1
		r := rand.New(rand.NewSource(seed))
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Set(i, i, 1e-3*r.NormFloat64()) // small pivots force row swaps
		}
		lu, err := Factorize(a)
		if err != nil {
			return true
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := lu.SolveLeftInto(make([]float64, n), b)
		xmax := 0.0
		for _, v := range x {
			xmax = math.Max(xmax, math.Abs(v))
		}
		scale := a.NormInf() * (1 + xmax)
		for j, v := range a.VecMul(x) {
			if math.Abs(v-b[j]) > 1e-9*scale {
				return false
			}
		}
		alias := append([]float64(nil), b...)
		lu.SolveLeftInto(alias, alias)
		for i := range x {
			if alias[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickInverseRoundTrip(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%6) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomWellConditioned(r, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return a.Mul(inv).Equalf(Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64, r8, c8 uint8) bool {
		rows, cols := int(r8%5)+1, int(c8%5)+1
		r := rand.New(rand.NewSource(seed))
		m := New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		return m.Transpose().Transpose().Equalf(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD) for conforming sizes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(seed%3+3) % 3
		n += 2 // 2..4
		mk := func() *Matrix {
			m := New(n, n)
			for i := range m.a {
				m.a[i] = r.NormFloat64()
			}
			return m
		}
		a, b, c, d := mk(), mk(), mk(), mk()
		lhs := a.Kron(b).Mul(c.Kron(d))
		rhs := a.Mul(c).Kron(b.Mul(d))
		return lhs.Equalf(rhs, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickVecMulMatchesTransposeMulVec(t *testing.T) {
	f := func(seed int64, r8, c8 uint8) bool {
		rows, cols := int(r8%5)+1, int(c8%5)+1
		r := rand.New(rand.NewSource(seed))
		m := New(rows, cols)
		for i := range m.a {
			m.a[i] = r.NormFloat64()
		}
		x := make([]float64, rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		lhs := m.VecMul(x)
		rhs := m.Transpose().MulVec(x)
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul32(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randomWellConditioned(rng, 32)
	n := randomWellConditioned(rng, 32)
	dst := New(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MulInto(m, n)
	}
}

func BenchmarkSolve64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randomWellConditioned(rng, 64)
	rhs := make([]float64, 64)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(m, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
