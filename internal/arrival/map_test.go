package arrival

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bgperf/internal/mat"
)

// softDev is the paper's Software Development MMPP (Fig. 2 table),
// rates per millisecond.
func softDev(t testing.TB) *MAP {
	t.Helper()
	m, err := MMPP2(0.9e-6, 1.9e-6, 1.0e-4, 3.5e-2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPoissonDescriptors(t *testing.T) {
	p, err := Poisson(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Rate()-2.5) > 1e-12 {
		t.Errorf("rate = %v, want 2.5", p.Rate())
	}
	if math.Abs(p.SCV()-1) > 1e-12 {
		t.Errorf("scv = %v, want 1", p.SCV())
	}
	for k := 1; k <= 5; k++ {
		if acf := p.ACF(k); math.Abs(acf) > 1e-12 {
			t.Errorf("ACF(%d) = %v, want 0", k, acf)
		}
	}
	if p.ACFDecay() != 0 {
		t.Errorf("decay = %v, want 0", p.ACFDecay())
	}
}

func TestPoissonRejectsNonPositiveRate(t *testing.T) {
	for _, r := range []float64{0, -1} {
		if _, err := Poisson(r); err == nil {
			t.Errorf("Poisson(%v) accepted", r)
		}
	}
}

func TestMMPP2PaperParameterization(t *testing.T) {
	m := softDev(t)
	// λ = (v2·l1 + v1·l2)/(v1+v2); with the paper's numbers ≈ 0.0113/ms,
	// i.e. ~6.8% utilization at 6 ms service — the paper reports 6%.
	wantRate := (1.9e-6*1.0e-4 + 0.9e-6*3.5e-2) / (0.9e-6 + 1.9e-6)
	if math.Abs(m.Rate()-wantRate) > 1e-12 {
		t.Errorf("rate = %v, want %v", m.Rate(), wantRate)
	}
	if m.SCV() <= 1 {
		t.Errorf("scv = %v, want > 1 for a bursty MMPP", m.SCV())
	}
	if acf1 := m.ACF(1); acf1 <= 0 || acf1 >= 1 {
		t.Errorf("ACF(1) = %v, want in (0,1)", acf1)
	}
}

func TestMMPP2Validation(t *testing.T) {
	tests := []struct {
		name           string
		v1, v2, l1, l2 float64
	}{
		{"zero v1", 0, 1, 1, 1},
		{"negative v2", 1, -1, 1, 1},
		{"negative l1", 1, 1, -1, 1},
		{"all arrival rates zero", 1, 1, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := MMPP2(tt.v1, tt.v2, tt.l1, tt.l2); err == nil {
				t.Error("invalid MMPP2 accepted")
			}
		})
	}
}

func TestMMPP2OneArrivalStateAllowed(t *testing.T) {
	// l1 = 0 is an IPP written as an MMPP2; must be accepted.
	if _, err := MMPP2(1, 1, 0, 2); err != nil {
		t.Fatalf("MMPP2 with l1=0 rejected: %v", err)
	}
}

func TestMeanInterarrivalIsInverseRate(t *testing.T) {
	m := softDev(t)
	if got := m.Moment(1); math.Abs(got*m.Rate()-1) > 1e-9 {
		t.Errorf("E[X]·λ = %v, want 1", got*m.Rate())
	}
	if math.Abs(m.MeanInterarrival()-1/m.Rate()) > 1e-15 {
		t.Error("MeanInterarrival != 1/Rate")
	}
}

func TestSCVMatchesMoments(t *testing.T) {
	m := softDev(t)
	m1, m2 := m.Moment(1), m.Moment(2)
	scvFromMoments := m2/(m1*m1) - 1
	if math.Abs(scvFromMoments-m.SCV()) > 1e-6*m.SCV() {
		t.Errorf("SCV = %v from Eq.2, %v from moments", m.SCV(), scvFromMoments)
	}
}

func TestACFGeometricDecayOrder2(t *testing.T) {
	m := softDev(t)
	acf := m.ACFSeries(50)
	gamma := m.ACFDecay()
	for k := 2; k <= 50; k++ {
		want := acf[0] * math.Pow(gamma, float64(k-1))
		if math.Abs(acf[k-1]-want) > 1e-9 {
			t.Fatalf("ACF(%d) = %v, want geometric %v", k, acf[k-1], want)
		}
	}
}

func TestACFSeriesMatchesACF(t *testing.T) {
	m := softDev(t)
	series := m.ACFSeries(10)
	for k := 1; k <= 10; k++ {
		if series[k-1] != m.ACF(k) {
			t.Errorf("ACFSeries[%d] = %v, ACF(%d) = %v", k-1, series[k-1], k, m.ACF(k))
		}
	}
}

func TestACFPanicsOnBadLag(t *testing.T) {
	m := softDev(t)
	defer func() {
		if recover() == nil {
			t.Fatal("ACF(0) did not panic")
		}
	}()
	m.ACF(0)
}

func TestIPPIsRenewal(t *testing.T) {
	ipp, err := IPP(1.0, 0.01, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if ipp.SCV() <= 1 {
		t.Errorf("IPP scv = %v, want > 1", ipp.SCV())
	}
	for k := 1; k <= 10; k++ {
		if acf := ipp.ACF(k); math.Abs(acf) > 1e-9 {
			t.Errorf("IPP ACF(%d) = %v, want 0 (renewal process)", k, acf)
		}
	}
}

func TestIPPFromMoments(t *testing.T) {
	ipp, err := IPPFromMoments(0.0133, 20, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ipp.Rate()-0.0133) > 1e-9 {
		t.Errorf("rate = %v, want 0.0133", ipp.Rate())
	}
	if math.Abs(ipp.SCV()-20) > 0.05 {
		t.Errorf("scv = %v, want 20", ipp.SCV())
	}
	if acf := ipp.ACF(1); math.Abs(acf) > 1e-9 {
		t.Errorf("ACF(1) = %v, want 0", acf)
	}
}

func TestIPPFromMomentsRejectsLowSCV(t *testing.T) {
	if _, err := IPPFromMoments(1, 0.9, 0.5); err == nil {
		t.Error("scv < 1 accepted")
	}
}

func TestErlangRenewal(t *testing.T) {
	// Four exponential stages of rate 2 per inter-arrival time.
	e, err := New(
		mat.MustFromRows([][]float64{{-2, 2, 0, 0}, {0, -2, 2, 0}, {0, 0, -2, 2}, {0, 0, 0, -2}}),
		mat.MustFromRows([][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {2, 0, 0, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	// Erlang-4 with stage rate 2: mean 2, rate 0.5, SCV 1/4.
	if math.Abs(e.Rate()-0.5) > 1e-9 {
		t.Errorf("rate = %v, want 0.5", e.Rate())
	}
	if math.Abs(e.SCV()-0.25) > 1e-9 {
		t.Errorf("scv = %v, want 0.25", e.SCV())
	}
	if acf := e.ACF(1); math.Abs(acf) > 1e-9 {
		t.Errorf("ACF(1) = %v, want 0", acf)
	}
}

func TestHyperexpRenewal(t *testing.T) {
	// Each gap is exponential with rate 1 or 10, with probability 1/2 each.
	h, err := New(
		mat.MustFromRows([][]float64{{-1, 0}, {0, -10}}),
		mat.MustFromRows([][]float64{{0.5, 0.5}, {5, 5}}))
	if err != nil {
		t.Fatal(err)
	}
	// E[X] = .5(1) + .5(.1) = .55; E[X²] = .5·2 + .5·0.02 = 1.01.
	wantRate := 1 / 0.55
	if math.Abs(h.Rate()-wantRate) > 1e-9 {
		t.Errorf("rate = %v, want %v", h.Rate(), wantRate)
	}
	wantSCV := 1.01/(0.55*0.55) - 1
	if math.Abs(h.SCV()-wantSCV) > 1e-9 {
		t.Errorf("scv = %v, want %v", h.SCV(), wantSCV)
	}
	if acf := h.ACF(3); math.Abs(acf) > 1e-9 {
		t.Errorf("ACF(3) = %v, want 0", acf)
	}
}

func TestScaleTimePreservesShape(t *testing.T) {
	m := softDev(t)
	scaled, err := m.ScaleTime(7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled.Rate()-7*m.Rate()) > 1e-12 {
		t.Errorf("rate = %v, want %v", scaled.Rate(), 7*m.Rate())
	}
	if math.Abs(scaled.SCV()-m.SCV()) > 1e-9 {
		t.Errorf("scv changed: %v vs %v", scaled.SCV(), m.SCV())
	}
	for k := 1; k <= 5; k++ {
		if math.Abs(scaled.ACF(k)-m.ACF(k)) > 1e-9 {
			t.Errorf("ACF(%d) changed: %v vs %v", k, scaled.ACF(k), m.ACF(k))
		}
	}
}

func TestWithRate(t *testing.T) {
	m := softDev(t)
	target := 1.0 / 6 * 0.4 // 40% utilization at µ = 1/6
	scaled, err := m.WithRate(target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled.Rate()-target) > 1e-12 {
		t.Errorf("rate = %v, want %v", scaled.Rate(), target)
	}
	if _, err := m.WithRate(-1); err == nil {
		t.Error("negative target rate accepted")
	}
}

func TestSuperposePoissons(t *testing.T) {
	a, _ := Poisson(1)
	b, _ := Poisson(2)
	s, err := a.Superpose(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rate()-3) > 1e-12 {
		t.Errorf("superposed rate = %v, want 3", s.Rate())
	}
	if math.Abs(s.SCV()-1) > 1e-9 {
		t.Errorf("superposed Poisson scv = %v, want 1", s.SCV())
	}
}

func TestSuperposeRates(t *testing.T) {
	m := softDev(t)
	p, _ := Poisson(0.05)
	s, err := m.Superpose(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rate()-(m.Rate()+0.05)) > 1e-12 {
		t.Errorf("rate = %v, want %v", s.Rate(), m.Rate()+0.05)
	}
	if s.Order() != 2 {
		t.Errorf("order = %d, want 2", s.Order())
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	tests := []struct {
		name   string
		d0, d1 *mat.Matrix
	}{
		{"shape mismatch", mat.New(2, 2), mat.New(3, 3)},
		{"negative D1", mat.MustFromRows([][]float64{{-1}}), mat.MustFromRows([][]float64{{-1}})},
		{"row sums", mat.MustFromRows([][]float64{{-1}}), mat.MustFromRows([][]float64{{2}})},
		{"zero rate", mat.MustFromRows([][]float64{{-1, 1}, {1, -1}}), mat.New(2, 2)},
		{
			"negative off-diagonal D0",
			mat.MustFromRows([][]float64{{0, -1}, {1, -2}}),
			mat.MustFromRows([][]float64{{1, 0}, {0, 1}}),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.d0, tt.d1); err == nil {
				t.Error("invalid MAP accepted")
			}
		})
	}
}

func TestAccessorsReturnCopies(t *testing.T) {
	m := softDev(t)
	d0 := m.D0()
	d0.Set(0, 0, 999)
	if m.D0().At(0, 0) == 999 {
		t.Error("D0 exposes internal state")
	}
	pi := m.TimeStationary()
	pi[0] = 42
	if m.TimeStationary()[0] == 42 {
		t.Error("TimeStationary exposes internal state")
	}
}

func TestEventStationaryIsDistribution(t *testing.T) {
	m := softDev(t)
	p := m.embPi
	if math.Abs(mat.Sum(p)-1) > 1e-9 {
		t.Errorf("event-stationary sums to %v", mat.Sum(p))
	}
	for i, v := range p {
		if v < 0 {
			t.Errorf("p[%d] = %v < 0", i, v)
		}
	}
}

func TestFitMMPP2RoundTrip(t *testing.T) {
	ref := softDev(t)
	spec := FitSpec{
		Rate:  ref.Rate(),
		SCV:   ref.SCV(),
		ACF1:  ref.ACF(1),
		Decay: ref.ACFDecay(),
	}
	fit, err := FitMMPP2(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rate()-spec.Rate) > 1e-9*spec.Rate {
		t.Errorf("rate = %v, want %v", fit.Rate(), spec.Rate)
	}
	if math.Abs(fit.SCV()-spec.SCV) > 1e-3*spec.SCV {
		t.Errorf("scv = %v, want %v", fit.SCV(), spec.SCV)
	}
	if math.Abs(fit.ACF(1)-spec.ACF1) > 1e-3*spec.ACF1 {
		t.Errorf("acf1 = %v, want %v", fit.ACF(1), spec.ACF1)
	}
	if math.Abs(fit.ACFDecay()-spec.Decay) > 1e-3 {
		t.Errorf("decay = %v, want %v", fit.ACFDecay(), spec.Decay)
	}
}

func TestFitMMPP2HighDependence(t *testing.T) {
	// An LRD-like target: slow decay and high variability with the lag-1 ACF
	// implied — the shape of the paper's E-mail workload. For slow decay the
	// implied ACF1 sits near its MMPP2 ceiling (1 − 1/SCV)/2.
	fit, err := FitMMPP2(FitSpec{Rate: 1.0 / 75, SCV: 12, Decay: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rate()-1.0/75) > 1e-9 {
		t.Errorf("rate = %v, want %v", fit.Rate(), 1.0/75)
	}
	if math.Abs(fit.SCV()-12) > 0.01 {
		t.Errorf("scv = %v, want 12", fit.SCV())
	}
	if math.Abs(fit.ACFDecay()-0.999) > 1e-6 {
		t.Errorf("decay = %v, want 0.999", fit.ACFDecay())
	}
	if fit.ACF(1) < 0.4 {
		t.Errorf("implied acf1 = %v, want near the (1−1/scv)/2 ≈ 0.458 ceiling", fit.ACF(1))
	}
	if fit.ACF(100) < 0.3 {
		t.Errorf("slow decay expected: ACF(100) = %v", fit.ACF(100))
	}
}

func TestFitMMPP2LowDependence(t *testing.T) {
	fit, err := FitMMPP2(FitSpec{Rate: 0.5, SCV: 3, Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.SCV()-3) > 0.01 {
		t.Errorf("scv = %v, want 3", fit.SCV())
	}
	if math.Abs(fit.ACFDecay()-0.5) > 1e-6 {
		t.Errorf("decay = %v, want 0.5", fit.ACFDecay())
	}
	if fit.ACF(5) > fit.ACF(1) {
		t.Error("ACF must decay")
	}
}

func TestFitMMPP2Infeasible(t *testing.T) {
	tests := []struct {
		name string
		spec FitSpec
	}{
		{"scv below 1", FitSpec{Rate: 1, SCV: 0.5, ACF1: 0.1, Decay: 0.5}},
		{"zero rate", FitSpec{Rate: 0, SCV: 2, ACF1: 0.1, Decay: 0.5}},
		{"acf1 too large", FitSpec{Rate: 1, SCV: 2, ACF1: 0.6, Decay: 0.5}},
		{"decay out of range", FitSpec{Rate: 1, SCV: 2, ACF1: 0.1, Decay: 1.5}},
		{"acf1 unreachable at low scv", FitSpec{Rate: 1, SCV: 1.01, ACF1: 0.45, Decay: 0.9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FitMMPP2(tt.spec); err == nil {
				t.Error("infeasible fit accepted")
			}
		})
	}
}

func TestQuickMMPP2DescriptorBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, rng.Float64()*4-2)
		m, err := MMPP2(
			scale*math.Pow(10, rng.Float64()*3-3),
			scale*math.Pow(10, rng.Float64()*3-3),
			scale*math.Pow(10, rng.Float64()*2-1),
			scale*math.Pow(10, rng.Float64()*2-1),
		)
		if err != nil {
			return true // invalid draw, skip
		}
		if m.Rate() <= 0 || m.SCV() < 1-1e-9 {
			return false
		}
		gamma := m.ACFDecay()
		if gamma < -1e-9 || gamma >= 1 {
			return false
		}
		for _, a := range m.ACFSeries(20) {
			if a < -1e-9 || a > 0.5+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickScaleInvariance(t *testing.T) {
	f := func(seed int64, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := MMPP2(rng.Float64()+0.01, rng.Float64()+0.01, rng.Float64()+0.01, rng.Float64()+0.01)
		if err != nil {
			return true
		}
		c := float64(cRaw%50+1) / 10
		s, err := m.ScaleTime(c)
		if err != nil {
			return false
		}
		return math.Abs(s.SCV()-m.SCV()) < 1e-7*(1+m.SCV()) &&
			math.Abs(s.ACF(1)-m.ACF(1)) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	m := softDev(t)
	s1 := NewSampler(m, 42)
	s2 := NewSampler(m, 42)
	for i := 0; i < 100; i++ {
		if s1.Next() != s2.Next() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestSamplerMatchesAnalytics(t *testing.T) {
	m, err := MMPP2(0.02, 0.05, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m, 7)
	const n = 400000
	xs := make([]float64, n)
	var sum float64
	for i := range xs {
		xs[i] = s.Next()
		sum += xs[i]
	}
	mean := sum / n
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	variance := ss / float64(n-1)
	cv2 := variance / (mean * mean)

	if rel := math.Abs(mean-m.MeanInterarrival()) / m.MeanInterarrival(); rel > 0.05 {
		t.Errorf("empirical mean %v vs analytic %v (rel err %.3f)", mean, m.MeanInterarrival(), rel)
	}
	if rel := math.Abs(cv2-m.SCV()) / m.SCV(); rel > 0.1 {
		t.Errorf("empirical SCV %v vs analytic %v (rel err %.3f)", cv2, m.SCV(), rel)
	}
	// Lag-1 autocorrelation.
	var acc float64
	for i := 0; i+1 < n; i++ {
		acc += (xs[i] - mean) * (xs[i+1] - mean)
	}
	acf1 := acc / float64(n-2) / variance
	if math.Abs(acf1-m.ACF(1)) > 0.03 {
		t.Errorf("empirical ACF(1) %v vs analytic %v", acf1, m.ACF(1))
	}
}

func TestSamplerPoissonExponential(t *testing.T) {
	p, _ := Poisson(4)
	s := NewSampler(p, 11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Next()
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.005 {
		t.Errorf("Poisson(4) empirical mean gap %v, want 0.25", mean)
	}
}

func TestMMPPGeneralOrder(t *testing.T) {
	mod := mat.MustFromRows([][]float64{
		{-0.02, 0.01, 0.01},
		{0.005, -0.01, 0.005},
		{0.002, 0.003, -0.005},
	})
	m, err := MMPP([]float64{2, 0.2, 0.01}, mod)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order() != 3 {
		t.Fatalf("order = %d, want 3", m.Order())
	}
	// Mean rate is the π-weighted rate mix.
	pi := m.TimeStationary()
	want := pi[0]*2 + pi[1]*0.2 + pi[2]*0.01
	if math.Abs(m.Rate()-want) > 1e-12 {
		t.Errorf("rate = %v, want %v", m.Rate(), want)
	}
	if m.SCV() <= 1 {
		t.Errorf("scv = %v, want > 1 for a modulated process", m.SCV())
	}
	if acf := m.ACF(1); acf <= 0 {
		t.Errorf("ACF(1) = %v, want positive", acf)
	}
	// MMPP2 through the general constructor must match MMPP2 exactly.
	mod2 := mat.MustFromRows([][]float64{{-0.9e-6, 0.9e-6}, {1.9e-6, -1.9e-6}})
	viaGeneral, err := MMPP([]float64{1.0e-4, 3.5e-2}, mod2)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := MMPP2(0.9e-6, 1.9e-6, 1.0e-4, 3.5e-2)
	if math.Abs(viaGeneral.Rate()-direct.Rate()) > 1e-15 || math.Abs(viaGeneral.SCV()-direct.SCV()) > 1e-9 {
		t.Error("general MMPP disagrees with MMPP2")
	}
}

func TestMMPPValidation(t *testing.T) {
	mod := mat.MustFromRows([][]float64{{-1, 1}, {1, -1}})
	if _, err := MMPP(nil, mod); err == nil {
		t.Error("empty rates accepted")
	}
	if _, err := MMPP([]float64{1}, mod); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := MMPP([]float64{-1, 1}, mod); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestQuickSuperposeRateAdds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := MMPP2(rng.Float64()+0.01, rng.Float64()+0.01, rng.Float64()+0.1, rng.Float64()*0.1)
		if err != nil {
			return true
		}
		b, err := Poisson(rng.Float64() + 0.01)
		if err != nil {
			return true
		}
		s, err := a.Superpose(b)
		if err != nil {
			return false
		}
		if math.Abs(s.Rate()-(a.Rate()+b.Rate())) > 1e-9*(a.Rate()+b.Rate()) {
			return false
		}
		// Descriptors of the superposition stay in their MAP ranges.
		return s.SCV() > 0 && math.Abs(s.ACF(1)) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEventStationaryIsPStationary(t *testing.T) {
	// p must be the stationary vector of the embedded chain P = (−D0)⁻¹D1.
	m := softDev(t)
	p := m.embPi
	d0 := m.D0().Scale(-1)
	inv, err := mat.Inverse(d0)
	if err != nil {
		t.Fatal(err)
	}
	pEmbed := inv.Mul(m.D1())
	after := pEmbed.Transpose().MulVec(p)
	for i := range p {
		if math.Abs(after[i]-p[i]) > 1e-10 {
			t.Errorf("p·P != p at phase %d: %v vs %v", i, after[i], p[i])
		}
	}
}
