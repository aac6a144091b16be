package phtype

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bgperf/internal/mat"
	"bgperf/internal/rng"
)

func TestExponentialMoments(t *testing.T) {
	d, err := Exponential(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-0.5) > 1e-12 {
		t.Errorf("mean = %v, want 0.5", d.Mean())
	}
	if math.Abs(d.SCV()-1) > 1e-12 {
		t.Errorf("scv = %v, want 1", d.SCV())
	}
	if math.Abs(d.Moment(3)-6.0/8) > 1e-12 { // E[X³] = 3!/λ³
		t.Errorf("third moment = %v, want 0.75", d.Moment(3))
	}
}

func TestExponentialRejects(t *testing.T) {
	if _, err := Exponential(0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestErlangMoments(t *testing.T) {
	d, err := Erlang(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-2) > 1e-12 {
		t.Errorf("mean = %v, want 2", d.Mean())
	}
	if math.Abs(d.SCV()-0.25) > 1e-12 {
		t.Errorf("scv = %v, want 1/4", d.SCV())
	}
	if d.Order() != 4 {
		t.Errorf("order = %d, want 4", d.Order())
	}
}

func TestHyperexponentialMoments(t *testing.T) {
	d, err := Hyperexponential([]float64{0.5, 0.5}, []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.5 + 0.05
	if math.Abs(d.Mean()-wantMean) > 1e-12 {
		t.Errorf("mean = %v, want %v", d.Mean(), wantMean)
	}
	wantM2 := 0.5*2 + 0.5*0.02
	if math.Abs(d.Moment(2)-wantM2) > 1e-12 {
		t.Errorf("m2 = %v, want %v", d.Moment(2), wantM2)
	}
}

func TestNewValidation(t *testing.T) {
	okT := mat.MustFromRows([][]float64{{-1}})
	tests := []struct {
		name string
		beta []float64
		t    *mat.Matrix
	}{
		{"empty", nil, okT},
		{"shape", []float64{1}, mat.New(2, 2)},
		{"beta sum", []float64{0.5}, okT},
		{"negative beta", []float64{-1, 2}, mat.MustFromRows([][]float64{{-1, 0}, {0, -1}})},
		{"positive diagonal", []float64{1}, mat.MustFromRows([][]float64{{1}})},
		{"negative offdiag", []float64{0.5, 0.5}, mat.MustFromRows([][]float64{{-1, -1}, {0, -1}})},
		{"row sum positive", []float64{1}, mat.MustFromRows([][]float64{{-1}}).Clone()},
	}
	// Fix the last case to actually have a positive row sum.
	tests[len(tests)-1].t = mat.MustFromRows([][]float64{{-1}})
	tests[len(tests)-1].t.Set(0, 0, -1)
	tests = tests[:len(tests)-1]
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.beta, tt.t); err == nil {
				t.Error("invalid PH accepted")
			}
		})
	}
	// No absorption: conservative generator.
	cons := mat.MustFromRows([][]float64{{-1, 1}, {1, -1}})
	if _, err := New([]float64{1, 0}, cons); err == nil {
		t.Error("non-absorbing PH accepted")
	}
}

func TestFitTwoMoment(t *testing.T) {
	tests := []struct {
		mean, scv float64
		exactSCV  bool
	}{
		{2, 1, true},
		{2, 0.25, true}, // Erlang-4
		{2, 0.5, true},  // Erlang-2
		{5, 4, true},    // H2
		{1, 16, true},
		{3, 0.3, false}, // 1/0.3 not integral: k=4 gives scv 0.25
	}
	for _, tt := range tests {
		d, err := FitTwoMoment(tt.mean, tt.scv)
		if err != nil {
			t.Fatalf("fit(%v, %v): %v", tt.mean, tt.scv, err)
		}
		if math.Abs(d.Mean()-tt.mean) > 1e-9*tt.mean {
			t.Errorf("fit(%v, %v): mean = %v", tt.mean, tt.scv, d.Mean())
		}
		if tt.exactSCV && math.Abs(d.SCV()-tt.scv) > 1e-9*tt.scv {
			t.Errorf("fit(%v, %v): scv = %v", tt.mean, tt.scv, d.SCV())
		}
	}
	if _, err := FitTwoMoment(-1, 1); err == nil {
		t.Error("negative mean accepted")
	}
}

func TestExitRates(t *testing.T) {
	d, err := Erlang(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	exit := d.ExitRates()
	if exit[0] != 0 || exit[1] != 3 {
		t.Errorf("exit = %v, want [0 3]", exit)
	}
}

func TestAccessorsCopy(t *testing.T) {
	d, _ := Erlang(2, 1)
	b := d.Beta()
	b[0] = 99
	if d.Beta()[0] == 99 {
		t.Error("Beta exposes internals")
	}
	tm := d.T()
	tm.Set(0, 0, 99)
	if d.T().At(0, 0) == 99 {
		t.Error("T exposes internals")
	}
}

func TestCDFExponential(t *testing.T) {
	d, _ := Exponential(2)
	for _, x := range []float64{0.1, 0.5, 1, 3} {
		want := 1 - math.Exp(-2*x)
		if got := d.CDF(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
	if d.CDF(0) != 0 || d.CDF(-1) != 0 {
		t.Error("CDF must be 0 at nonpositive x")
	}
}

func TestCDFErlang(t *testing.T) {
	// Erlang-2 with rate 1: CDF(x) = 1 − e^{−x}(1+x).
	d, _ := Erlang(2, 1)
	for _, x := range []float64{0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x)*(1+x)
		if got := d.CDF(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestSamplerMatchesMoments checks the simulator's sampler, Compile(d).Sample,
// against the distribution's first two moments.
func TestSamplerMatchesMoments(t *testing.T) {
	d, err := Hyperexponential([]float64{0.3, 0.7}, []float64{0.5, 5})
	if err != nil {
		t.Fatal(err)
	}
	c, r := Compile(d), rng.New(42)
	const n = 300000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := c.Sample(&r)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	m2 := sumSq / n
	if rel := math.Abs(mean-d.Mean()) / d.Mean(); rel > 0.02 {
		t.Errorf("sample mean %v vs %v", mean, d.Mean())
	}
	if rel := math.Abs(m2-d.Moment(2)) / d.Moment(2); rel > 0.05 {
		t.Errorf("sample m2 %v vs %v", m2, d.Moment(2))
	}
}

func TestSamplerErlangPhases(t *testing.T) {
	// Erlang sampling must traverse the chain, not just exit from phase 1.
	d, _ := Erlang(3, 3)
	c, r := Compile(d), rng.New(7)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += c.Sample(&r)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("Erlang-3 sample mean %v, want 1", mean)
	}
}

func TestQuickMomentConsistency(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%5) + 1
		d, err := Erlang(k, rng.Float64()*5+0.1)
		if err != nil {
			return false
		}
		// SCV from moments equals 1/k; CDF is monotone.
		if math.Abs(d.SCV()-1/float64(k)) > 1e-9 {
			return false
		}
		prev := 0.0
		for _, x := range []float64{0.1, 0.5, 1, 2, 4, 8} {
			c := d.CDF(x * d.Mean())
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCoxian(t *testing.T) {
	// A Coxian that always continues is an Erlang.
	cox, err := Coxian([]float64{2, 2, 2}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	erl, _ := Erlang(3, 2)
	if math.Abs(cox.Mean()-erl.Mean()) > 1e-12 || math.Abs(cox.SCV()-erl.SCV()) > 1e-12 {
		t.Errorf("full-continuation Coxian != Erlang: mean %v vs %v", cox.Mean(), erl.Mean())
	}
	// Zero continuation is exponential.
	cox1, err := Coxian([]float64{3, 5}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cox1.Mean()-1.0/3) > 1e-12 {
		t.Errorf("no-continuation Coxian mean %v, want 1/3", cox1.Mean())
	}
	// Partial continuation: E[X] = 1/r1 + c·(1/r2).
	cox2, err := Coxian([]float64{2, 4}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5 + 0.5*0.25; math.Abs(cox2.Mean()-want) > 1e-12 {
		t.Errorf("Coxian mean %v, want %v", cox2.Mean(), want)
	}
}

func TestCoxianValidation(t *testing.T) {
	if _, err := Coxian(nil, nil); err == nil {
		t.Error("empty Coxian accepted")
	}
	if _, err := Coxian([]float64{1, 2}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Coxian([]float64{0, 1}, []float64{0.5}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Coxian([]float64{1, 2}, []float64{1.5}); err == nil {
		t.Error("continuation > 1 accepted")
	}
}
