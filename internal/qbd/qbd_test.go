package qbd

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bgperf/internal/mat"
	"bgperf/internal/qbd/qbdtest"
)

// mm1 builds the M/M/1 queue as a degenerate one-phase QBD.
func mm1(lambda, mu float64) (*Process, Boundary) {
	p, err := New(
		mat.MustFromRows([][]float64{{lambda}}),
		mat.MustFromRows([][]float64{{-(lambda + mu)}}),
		mat.MustFromRows([][]float64{{mu}}),
	)
	if err != nil {
		panic(err)
	}
	b := Boundary{
		Local: []*mat.Matrix{mat.MustFromRows([][]float64{{-lambda}})},
		Up:    []*mat.Matrix{mat.MustFromRows([][]float64{{lambda}})},
		Down:  []*mat.Matrix{nil},
	}
	return p, b
}

// me2q builds the M/E2/1 queue: Poisson(λ) arrivals, Erlang-2 service with
// stage rate 2µ. Phases track the service stage; boundary level 0 is the
// single empty state, exercising rectangular boundary blocks.
func me2q(lambda, mu float64) (*Process, Boundary) {
	s := 2 * mu
	p, err := New(
		mat.MustFromRows([][]float64{{lambda, 0}, {0, lambda}}),
		mat.MustFromRows([][]float64{{-(lambda + s), s}, {0, -(lambda + s)}}),
		mat.MustFromRows([][]float64{{0, 0}, {s, 0}}),
	)
	if err != nil {
		panic(err)
	}
	b := Boundary{
		Local:   []*mat.Matrix{mat.MustFromRows([][]float64{{-lambda}})},
		Up:      []*mat.Matrix{mat.MustFromRows([][]float64{{lambda, 0}})},
		Down:    []*mat.Matrix{nil},
		RepDown: mat.MustFromRows([][]float64{{0}, {s}}),
	}
	return p, b
}

func TestMM1RMatrix(t *testing.T) {
	p, _ := mm1(1, 2)
	r, err := p.R()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.At(0, 0)-0.5) > 1e-10 {
		t.Errorf("R = %v, want 0.5 (= ρ)", r.At(0, 0))
	}
}

func TestMM1Stationary(t *testing.T) {
	const lambda, mu = 1.0, 2.5
	rho := lambda / mu
	p, b := mm1(lambda, mu)
	sol, err := Solve(b, p)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j <= 10; j++ {
		want := (1 - rho) * math.Pow(rho, float64(j))
		if got := mat.Sum(sol.LevelPi(j)); math.Abs(got-want) > 1e-10 {
			t.Errorf("π_%d = %v, want %v", j, got, want)
		}
	}
	wantMean := rho / (1 - rho)
	if got := sol.MeanLevel(); math.Abs(got-wantMean) > 1e-9 {
		t.Errorf("E[N] = %v, want %v", got, wantMean)
	}
	if mass := sol.TotalMass(); math.Abs(mass-1) > 1e-10 {
		t.Errorf("total mass = %v", mass)
	}
}

func TestME21MatchesPollaczekKhinchine(t *testing.T) {
	// M/G/1 with Erlang-2 service: E[N] = ρ + ρ²(1+cs²)/(2(1−ρ)), cs² = 1/2.
	tests := []struct{ lambda, mu float64 }{
		{0.3, 1}, {0.6, 1}, {0.9, 1}, {1.5, 2},
	}
	for _, tt := range tests {
		rho := tt.lambda / tt.mu
		p, b := me2q(tt.lambda, tt.mu)
		sol, err := Solve(b, p)
		if err != nil {
			t.Fatalf("λ=%v: %v", tt.lambda, err)
		}
		want := rho + rho*rho*1.5/(2*(1-rho))
		if got := sol.MeanLevel(); math.Abs(got-want) > 1e-8 {
			t.Errorf("λ=%v µ=%v: E[N] = %v, want %v (P-K)", tt.lambda, tt.mu, got, want)
		}
	}
}

func TestDriftMM1(t *testing.T) {
	p, _ := mm1(1, 2)
	up, down, err := p.Drift()
	if err != nil {
		t.Fatal(err)
	}
	if up != 1 || down != 2 {
		t.Errorf("drift = (%v, %v), want (1, 2)", up, down)
	}
	stable, err := p.Stable()
	if err != nil || !stable {
		t.Errorf("stable = %v, %v; want true, nil", stable, err)
	}
}

func TestUnstableRejected(t *testing.T) {
	p, b := mm1(2, 1)
	if _, err := p.R(); !errors.Is(err, ErrUnstable) {
		t.Errorf("R() error = %v, want ErrUnstable", err)
	}
	if _, err := Solve(b, p); !errors.Is(err, ErrUnstable) {
		t.Errorf("Solve error = %v, want ErrUnstable", err)
	}
}

func TestCriticallyLoadedRejected(t *testing.T) {
	p, _ := mm1(1, 1)
	if _, err := p.R(); !errors.Is(err, ErrUnstable) {
		t.Errorf("ρ=1 accepted: %v", err)
	}
}

func TestRQuadraticResidual(t *testing.T) {
	p, _ := me2q(0.7, 1)
	r, err := p.R()
	if err != nil {
		t.Fatal(err)
	}
	res := p.A0().AddMat(r.Mul(p.A1())).AddInPlace(r.Mul(r).Mul(p.A2()))
	if res.MaxAbs() > 1e-10 {
		t.Errorf("A0 + RA1 + R²A2 residual = %v", res.MaxAbs())
	}
}

func TestRMatchesFunctionalIteration(t *testing.T) {
	p, _ := me2q(0.8, 1)
	rCR, err := p.R()
	if err != nil {
		t.Fatal(err)
	}
	rFI, err := qbdtest.FunctionalIterationR(p.A0(), p.A1(), p.A2(), 1e-13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rCR.Equalf(rFI, 1e-8) {
		t.Errorf("cyclic reduction and functional iteration disagree:\n%v\nvs\n%v", rCR, rFI)
	}
}

func TestNewValidation(t *testing.T) {
	ok := mat.MustFromRows([][]float64{{1}})
	tests := []struct {
		name       string
		a0, a1, a2 *mat.Matrix
	}{
		{"shape", mat.New(2, 2), mat.New(1, 1), mat.New(1, 1)},
		{"negative A0", mat.MustFromRows([][]float64{{-1}}), mat.MustFromRows([][]float64{{0}}), ok},
		{"negative A2", ok, mat.MustFromRows([][]float64{{0}}), mat.MustFromRows([][]float64{{-1}})},
		{"bad row sums", ok, mat.MustFromRows([][]float64{{-5}}), ok},
		{"nan", mat.MustFromRows([][]float64{{math.NaN()}}), ok, ok},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.a0, tt.a1, tt.a2); err == nil {
				t.Error("invalid blocks accepted")
			}
		})
	}
}

func TestBoundaryValidation(t *testing.T) {
	p, good := mm1(1, 2)
	if _, err := Solve(Boundary{}, p); err == nil {
		t.Error("empty boundary accepted")
	}
	bad := good
	bad.Up = []*mat.Matrix{mat.New(1, 3)}
	if _, err := Solve(bad, p); err == nil {
		t.Error("mismatched Up accepted")
	}
	bad = good
	bad.Down = nil
	if _, err := Solve(bad, p); err == nil {
		t.Error("missing Down slice accepted")
	}
	bad = good
	bad.RepDown = mat.New(3, 3)
	if _, err := Solve(bad, p); err == nil {
		t.Error("mismatched RepDown accepted")
	}
	// Implicit RepDown with a wrong-size top boundary level must fail.
	p2, _ := me2q(0.5, 1)
	b2 := Boundary{
		Local: []*mat.Matrix{mat.MustFromRows([][]float64{{-0.5}})},
		Up:    []*mat.Matrix{mat.MustFromRows([][]float64{{0.5, 0}})},
		Down:  []*mat.Matrix{nil},
	}
	if _, err := Solve(b2, p2); err == nil {
		t.Error("implicit RepDown with size mismatch accepted")
	}
}

func TestLevelPiConsistency(t *testing.T) {
	p, b := me2q(0.7, 1)
	sol, err := Solve(b, p)
	if err != nil {
		t.Fatal(err)
	}
	// π_{j+1} = π_j·R for repeating levels.
	for j := sol.FirstRepLevel(); j < sol.FirstRepLevel()+5; j++ {
		got := sol.LevelPi(j + 1)
		want := sol.R.Transpose().MulVec(sol.LevelPi(j))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("level %d: π·R mismatch at phase %d", j+1, i)
			}
		}
	}
}

func TestTailSums(t *testing.T) {
	p, b := mm1(1, 2)
	sol, err := Solve(b, p)
	if err != nil {
		t.Fatal(err)
	}
	// Compare closed-form tail sums with brute-force accumulation.
	var bruteMass, bruteWeighted, bruteSquare float64
	for k := 0; k < 200; k++ {
		m := mat.Sum(sol.LevelPi(sol.FirstRepLevel() + k))
		bruteMass += m
		bruteWeighted += float64(k) * m
		bruteSquare += float64(k) * float64(k) * m
	}
	if got := mat.Sum(sol.TailSum()); math.Abs(got-bruteMass) > 1e-10 {
		t.Errorf("TailSum = %v, brute force %v", got, bruteMass)
	}
	if got := mat.Sum(sol.TailWeightedSum()); math.Abs(got-bruteWeighted) > 1e-10 {
		t.Errorf("TailWeightedSum = %v, brute force %v", got, bruteWeighted)
	}
	if got := mat.Sum(sol.TailSquareWeightedSum()); math.Abs(got-bruteSquare) > 1e-9 {
		t.Errorf("TailSquareWeightedSum = %v, brute force %v", got, bruteSquare)
	}
}

func TestSecondMomentMM1(t *testing.T) {
	// M/M/1: E[N²] = ρ(1+ρ)/(1−ρ)².
	const lambda, mu = 1.0, 2.5
	rho := lambda / mu
	p, b := mm1(lambda, mu)
	sol, err := Solve(b, p)
	if err != nil {
		t.Fatal(err)
	}
	// E[N²] over levels: boundary (level 0 contributes 0) + tail with
	// level = first + k = 1 + k, so N² = 1 + 2k + k².
	first := float64(sol.FirstRepLevel())
	m2 := first*first*mat.Sum(sol.TailSum()) +
		2*first*mat.Sum(sol.TailWeightedSum()) +
		mat.Sum(sol.TailSquareWeightedSum())
	want := rho * (1 + rho) / ((1 - rho) * (1 - rho))
	if math.Abs(m2-want) > 1e-9*want {
		t.Errorf("E[N²] = %v, want %v", m2, want)
	}
}

// randomStableQBD builds a random QBD with a reflecting boundary
// (Local[0] = A1+A2), retrying until the drift condition holds.
func randomStableQBD(rng *rand.Rand, m int) (*Process, Boundary, bool) {
	for attempt := 0; attempt < 20; attempt++ {
		a0 := mat.New(m, m)
		a1 := mat.New(m, m)
		a2 := mat.New(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a0.Set(i, j, rng.Float64()*0.5)
				a2.Set(i, j, rng.Float64()+0.5)
				if i != j {
					a1.Set(i, j, rng.Float64())
				}
			}
		}
		for i := 0; i < m; i++ {
			row := -(mat.Sum(a0.Row(i)) + mat.Sum(a2.Row(i)) + mat.Sum(a1.Row(i)))
			a1.Set(i, i, row)
		}
		p, err := New(a0, a1, a2)
		if err != nil {
			continue
		}
		if ok, err := p.Stable(); err != nil || !ok {
			continue
		}
		b := Boundary{
			Local: []*mat.Matrix{a1.AddMat(a2)},
			Up:    []*mat.Matrix{a0.Clone()},
			Down:  []*mat.Matrix{nil},
		}
		return p, b, true
	}
	return nil, Boundary{}, false
}

func TestQuickRandomStableQBD(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		m := int(szRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		p, b, ok := randomStableQBD(rng, m)
		if !ok {
			return true // could not build a stable instance; skip
		}
		r, err := p.R()
		if err != nil {
			return false
		}
		if sp := mat.SpectralRadius(r, 1e-10, 5000); sp >= 1 {
			return false
		}
		res := p.A0().AddMat(r.Mul(p.A1())).AddInPlace(r.Mul(r).Mul(p.A2()))
		if res.MaxAbs() > 1e-8 {
			return false
		}
		sol, err := Solve(b, p)
		if err != nil {
			return false
		}
		if math.Abs(sol.TotalMass()-1) > 1e-8 {
			return false
		}
		// Balance residual at a mid-tail level: π_{j−1}A0 + π_jA1 + π_{j+1}A2 = 0.
		j := sol.FirstRepLevel() + 2
		lhs := make([]float64, m)
		for i := range lhs {
			lhs[i] = 0
		}
		add := func(v []float64, a *mat.Matrix) {
			r := a.Transpose().MulVec(v)
			for i := range lhs {
				lhs[i] += r[i]
			}
		}
		add(sol.LevelPi(j-1), p.A0())
		add(sol.LevelPi(j), p.A1())
		add(sol.LevelPi(j+1), p.A2())
		for _, v := range lhs {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkR(b *testing.B) {
	p, _ := me2q(0.8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.R(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveME21(b *testing.B) {
	p, bd := me2q(0.8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(bd, p); err != nil {
			b.Fatal(err)
		}
	}
}
