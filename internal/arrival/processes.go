package arrival

import (
	"fmt"

	"bgperf/internal/mat"
)

// Poisson returns the Poisson process with the given rate as an order-1 MAP.
func Poisson(rate float64) (*MAP, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("%w: Poisson rate %g must be positive", ErrInvalidMAP, rate)
	}
	d0 := mat.MustFromRows([][]float64{{-rate}})
	d1 := mat.MustFromRows([][]float64{{rate}})
	return New(d0, d1)
}

// MMPP2 returns the 2-state Markov-Modulated Poisson Process with the
// parameterization of the paper's Eq. 4:
//
//	D0 = [ −(l1+v1)   v1      ]     D1 = [ l1  0  ]
//	     [  v2       −(l2+v2) ]          [ 0   l2 ]
//
// l1, l2 are the per-state Poisson arrival rates and v1, v2 the modulation
// rates between the states. At least one arrival rate must be positive and
// both modulation rates must be positive (otherwise the phase process is
// reducible; for a one-way process use IPP).
func MMPP2(v1, v2, l1, l2 float64) (*MAP, error) {
	if v1 <= 0 || v2 <= 0 {
		return nil, fmt.Errorf("%w: MMPP2 modulation rates (v1=%g, v2=%g) must be positive", ErrInvalidMAP, v1, v2)
	}
	if l1 < 0 || l2 < 0 || l1+l2 == 0 {
		return nil, fmt.Errorf("%w: MMPP2 arrival rates (l1=%g, l2=%g) must be nonnegative with a positive sum", ErrInvalidMAP, l1, l2)
	}
	d0 := mat.MustFromRows([][]float64{
		{-(l1 + v1), v1},
		{v2, -(l2 + v2)},
	})
	d1 := mat.MustFromRows([][]float64{
		{l1, 0},
		{0, l2},
	})
	return New(d0, d1)
}

// MMPP returns a general n-state Markov-Modulated Poisson Process: arrivals
// occur at rates[i] while the modulating chain (with generator modulator,
// an n×n CTMC generator) sits in state i. The 2-state special case is
// MMPP2; higher orders capture richer dependence structures (e.g. three
// activity regimes of a disk workload).
func MMPP(rates []float64, modulator *mat.Matrix) (*MAP, error) {
	n := len(rates)
	if n == 0 || modulator.Rows() != n || modulator.Cols() != n {
		return nil, fmt.Errorf("%w: MMPP with %d rates and %dx%d modulator",
			ErrInvalidMAP, n, modulator.Rows(), modulator.Cols())
	}
	d1 := mat.New(n, n)
	d0 := modulator.Clone()
	for i := 0; i < n; i++ {
		if rates[i] < 0 {
			return nil, fmt.Errorf("%w: MMPP rate %g in state %d", ErrInvalidMAP, rates[i], i)
		}
		d1.Set(i, i, rates[i])
		d0.Add(i, i, -rates[i])
	}
	return New(d0, d1)
}

// IPP returns the Interrupted Poisson Process: arrivals at rate lambdaOn
// while in the ON state, none while OFF, with exponential ON and OFF sojourns
// of rates onToOff and offToOn. An IPP is a (hyperexponential) renewal
// process — high variability, zero autocorrelation — which is exactly why the
// paper uses it to isolate variability from dependence (Sec. 5.4).
func IPP(lambdaOn, onToOff, offToOn float64) (*MAP, error) {
	if lambdaOn <= 0 || onToOff <= 0 || offToOn <= 0 {
		return nil, fmt.Errorf("%w: IPP rates (λ=%g, on→off=%g, off→on=%g) must be positive",
			ErrInvalidMAP, lambdaOn, onToOff, offToOn)
	}
	d0 := mat.MustFromRows([][]float64{
		{-(lambdaOn + onToOff), onToOff},
		{offToOn, -offToOn},
	})
	d1 := mat.MustFromRows([][]float64{
		{lambdaOn, 0},
		{0, 0},
	})
	return New(d0, d1)
}

// IPPFromMoments builds the IPP with mean rate `rate` and inter-arrival SCV
// `scv` (> 1). The ON fraction is the remaining degree of freedom; onFrac in
// (0, 1) sets the stationary probability of the ON state. The inter-arrival
// times of an IPP are H2-distributed, so any scv > 1 is reachable.
func IPPFromMoments(rate, scv, onFrac float64) (*MAP, error) {
	if scv <= 1 {
		return nil, fmt.Errorf("%w: IPP requires scv > 1, got %g", ErrInvalidMAP, scv)
	}
	if onFrac <= 0 || onFrac >= 1 {
		return nil, fmt.Errorf("%w: onFrac %g must lie in (0,1)", ErrInvalidMAP, onFrac)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("%w: rate %g must be positive", ErrInvalidMAP, rate)
	}
	// With π_on = onFrac, the mean rate λ = λ_on·π_on fixes λ_on. Holding
	// π_on = offToOn/(onToOff+offToOn) fixed ties onToOff to offToOn, and the
	// SCV then falls monotonically in offToOn (faster switching → closer to
	// Poisson), so a bisection on offToOn hits the target SCV.
	lambdaOn := rate / onFrac
	build := func(offToOn float64) (*MAP, error) {
		onToOff := offToOn * (1 - onFrac) / onFrac
		return IPP(lambdaOn, onToOff, offToOn)
	}
	lo, hi := 1e-12*rate, 1e6*rate
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		m, err := build(mid)
		if err != nil {
			return nil, err
		}
		got := m.SCV()
		if got > scv {
			lo = mid
		} else {
			hi = mid
		}
	}
	m, err := build((lo + hi) / 2)
	if err != nil {
		return nil, err
	}
	if diff := m.SCV() - scv; diff > 1e-3*scv || diff < -1e-3*scv {
		return nil, fmt.Errorf("%w: IPP fit did not converge (scv %g, want %g)", ErrInvalidMAP, m.SCV(), scv)
	}
	return m.WithRate(rate)
}
