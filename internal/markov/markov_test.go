package markov

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bgperf/internal/mat"
	"bgperf/internal/qbd/qbdtest"
)

func twoStateGen(a, b float64) *mat.Matrix {
	return mat.MustFromRows([][]float64{
		{-a, a},
		{b, -b},
	})
}

func TestCheckGeneratorValid(t *testing.T) {
	if err := CheckGenerator(twoStateGen(1, 2), 0); err != nil {
		t.Errorf("valid generator rejected: %v", err)
	}
}

func TestCheckGeneratorRejects(t *testing.T) {
	tests := []struct {
		name string
		q    *mat.Matrix
	}{
		{"nonzero row sum", mat.MustFromRows([][]float64{{-1, 2}, {1, -1}})},
		{"negative off-diagonal", mat.MustFromRows([][]float64{{1, -1}, {1, -1}})},
		{"positive diagonal", mat.MustFromRows([][]float64{{1, -1}, {2, -2}})},
		{"not square", mat.New(2, 3)},
		{"NaN", mat.MustFromRows([][]float64{{math.NaN(), 0}, {0, 0}})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := CheckGenerator(tt.q, 0); err == nil {
				t.Error("invalid generator accepted")
			}
		})
	}
}

func TestStationaryCTMCTwoState(t *testing.T) {
	// Birth rate a, death rate b: π = (b, a)/(a+b).
	pi, err := StationaryCTMC(twoStateGen(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.75) > 1e-12 || math.Abs(pi[1]-0.25) > 1e-12 {
		t.Errorf("pi = %v, want [0.75 0.25]", pi)
	}
}

func TestStationaryCTMCBirthDeath(t *testing.T) {
	// 3-state birth-death with birth 1, death 2: geometric with ratio 1/2.
	q := mat.MustFromRows([][]float64{
		{-1, 1, 0},
		{2, -3, 1},
		{0, 2, -2},
	})
	pi, err := StationaryCTMC(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4.0 / 7, 2.0 / 7, 1.0 / 7}
	for i := range want {
		if math.Abs(pi[i]-want[i]) > 1e-12 {
			t.Errorf("pi[%d] = %v, want %v", i, pi[i], want[i])
		}
	}
}

func TestStationaryCTMCReducible(t *testing.T) {
	// Two absorbing states: zero generator is reducible.
	q := mat.New(2, 2)
	if _, err := StationaryCTMC(q); err == nil {
		t.Error("reducible chain accepted")
	} else if !errors.Is(err, ErrReducible) {
		t.Errorf("error = %v, want ErrReducible", err)
	}
}

func TestUniformize(t *testing.T) {
	q := twoStateGen(1, 4)
	p, theta := Uniformize(q)
	if theta < 4 {
		t.Errorf("theta = %v, want >= 4", theta)
	}
	if err := checkStochastic(p, 1e-9); err != nil {
		t.Errorf("uniformized matrix not stochastic: %v", err)
	}
	// Same stationary distribution: the CTMC's π is invariant under P.
	piQ, err := StationaryCTMC(q)
	if err != nil {
		t.Fatal(err)
	}
	piP := p.VecMulInto(make([]float64, len(piQ)), piQ)
	for i := range piQ {
		if math.Abs(piQ[i]-piP[i]) > 1e-9 {
			t.Errorf("stationary mismatch at %d: π %v, πP %v", i, piQ[i], piP[i])
		}
	}
}

// checkStochastic reports the first negative entry or row sum off 1 by
// more than tol.
func checkStochastic(p *mat.Matrix, tol float64) error {
	for i := 0; i < p.Rows(); i++ {
		for j, v := range p.RowView(i) {
			if v < -tol {
				return fmt.Errorf("negative entry %g at (%d,%d)", v, i, j)
			}
		}
		if s := p.RowSum(i); math.Abs(s-1) > tol {
			return fmt.Errorf("row %d sums to %g", i, s)
		}
	}
	return nil
}

func TestUniformizeZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniformize(0) did not panic")
		}
	}()
	Uniformize(mat.New(2, 2))
}

// randomGenerator builds an irreducible generator with positive off-diagonal
// rates in (0, 1].
func randomGenerator(rng *rand.Rand, n int) *mat.Matrix {
	q := mat.New(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64() + 1e-3
			q.Set(i, j, v)
			sum += v
		}
		q.Set(i, i, -sum)
	}
	return q
}

func TestQuickStationaryResidual(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		q := randomGenerator(rng, n)
		pi, err := StationaryCTMC(q)
		if err != nil {
			return false
		}
		if math.Abs(mat.Sum(pi)-1) > 1e-9 {
			return false
		}
		res := q.VecMul(pi)
		for _, v := range res {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickUniformizePreservesStationary(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%5) + 2
		rng := rand.New(rand.NewSource(seed))
		q := randomGenerator(rng, n)
		p, _ := Uniformize(q)
		piQ, err := StationaryCTMC(q)
		if err != nil || checkStochastic(p, 1e-9) != nil {
			return false
		}
		piP := p.VecMulInto(make([]float64, n), piQ)
		for i := range piQ {
			if math.Abs(piQ[i]-piP[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGTHMatchesLU(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		q := randomGenerator(rng, n)
		lu, err1 := StationaryCTMC(q)
		gth, err2 := StationaryCTMCGTH(q)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range lu {
			if math.Abs(lu[i]-gth[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGTHStiffGenerator(t *testing.T) {
	// Rates spanning 12 orders of magnitude: GTH stays exact where naive
	// elimination loses digits. Closed form for the 2-state chain:
	// π = (b, a)/(a+b).
	const a, b = 1e6, 1e-6
	pi, err := StationaryCTMCGTH(twoStateGen(a, b))
	if err != nil {
		t.Fatal(err)
	}
	want0 := b / (a + b)
	if math.Abs(pi[0]-want0) > 1e-15*want0 && math.Abs(pi[0]-want0) > 1e-24 {
		t.Errorf("pi[0] = %v, want %v", pi[0], want0)
	}
	if math.Abs(pi[0]+pi[1]-1) > 1e-15 {
		t.Errorf("mass = %v", pi[0]+pi[1])
	}
}

func TestGTHTraceMMPPGenerators(t *testing.T) {
	// The paper's Soft.Dev. modulating chain (rates ~1e-6): both solvers
	// agree; GTH serves as the reference.
	q := mat.MustFromRows([][]float64{
		{-0.9e-6, 0.9e-6},
		{1.9e-6, -1.9e-6},
	})
	lu, err := StationaryCTMC(q)
	if err != nil {
		t.Fatal(err)
	}
	gth, err := StationaryCTMCGTH(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lu {
		if math.Abs(lu[i]-gth[i]) > 1e-12 {
			t.Errorf("state %d: LU %v vs GTH %v", i, lu[i], gth[i])
		}
	}
}

func TestGTHRejects(t *testing.T) {
	if _, err := StationaryCTMCGTH(mat.New(2, 2)); err == nil {
		t.Error("zero generator accepted")
	}
	// Absorbing upper state: state 1 cannot reach state 0.
	q := mat.MustFromRows([][]float64{{-1, 1}, {0, 0}})
	if _, err := StationaryCTMCGTH(q); err == nil {
		t.Error("reducible chain accepted")
	}
}

func TestGTHSingleState(t *testing.T) {
	pi, err := StationaryCTMCGTH(mat.New(1, 1))
	if err != nil || len(pi) != 1 || pi[0] != 1 {
		t.Errorf("single state: %v, %v", pi, err)
	}
}

// stiffGenerator builds a sparse irreducible generator whose rates span 12
// orders of magnitude (log-uniform in [1e-8, 1e4]), as the level-0
// generators of the paper's chains do. Every state reaches its neighbours
// on a ring, about a third of the other pairs carry a rate, and a few
// entries hold the tolerance-level negative noise a fold leaves behind.
func stiffGenerator(rng *rand.Rand, n int) *mat.Matrix {
	q := mat.New(n, n)
	rate := func() float64 { return math.Pow(10, -8+12*rng.Float64()) }
	for i := 0; i < n; i++ {
		row := q.RowView(i)
		row[(i+1)%n] = rate()
		row[(i+n-1)%n] = rate()
		for j := range row {
			if j != i && row[j] == 0 {
				switch u := rng.Float64(); {
				case u < 0.3:
					row[j] = rate()
				case u < 0.32:
					row[j] = -1e-13
				}
			}
		}
		row[i] = 0
		row[i] = -mat.Sum(row)
	}
	return q
}

// TestGTHRowSlicesBitIdentical pins the row-slice GTH kernel to the
// element-wise reference qbdtest.GTH, bit for bit, on random stiff
// generators of orders 2 to 80. The level-0 generators of the large-state
// chains are checked the same way in package qbd.
func TestGTHRowSlicesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 200; c++ {
		n := 2 + rng.Intn(79)
		q := stiffGenerator(rng, n)
		got, err := StationaryCTMCGTH(q)
		if err != nil {
			t.Fatalf("case %d (n=%d): %v", c, n, err)
		}
		want, err := qbdtest.GTH(q)
		if err != nil {
			t.Fatalf("case %d (n=%d): reference: %v", c, n, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d (n=%d): π[%d] = %v, reference %v", c, n, i, got[i], want[i])
			}
		}
	}
}
