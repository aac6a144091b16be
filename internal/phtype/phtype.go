// Package phtype implements continuous phase-type (PH) distributions — the
// absorption times of finite transient Markov chains. The paper models
// service as exponential (measured service CV < 1, "approximated by
// exponential"); its footnote 3 notes that the same chain construction works
// for MAP/PH service via Kronecker products. This package supplies the PH
// representations ((β, T) pairs), their moments, two-moment fitting, and
// sampling, used by the PH-service variant of the model and by the
// simulator.
package phtype

import (
	"errors"
	"fmt"
	"math"

	"bgperf/internal/mat"
)

// ErrInvalid reports a malformed PH representation.
var ErrInvalid = errors.New("phtype: invalid distribution")

// Dist is a continuous phase-type distribution (β, T): β is the initial
// probability vector over S transient phases and T the S×S transient
// generator (strictly substochastic rows). The exit-rate vector is t = −T·1.
// A Dist is immutable after construction and safe to share across
// goroutines; Compile flattens it into the sampler the simulator draws from.
type Dist struct {
	beta []float64
	t    *mat.Matrix
	exit []float64
	invT *mat.Matrix // (−T)⁻¹, cached
}

// New validates (beta, t) and returns the distribution. Requirements:
// matching dimensions; β ≥ 0 summing to 1; T with nonnegative off-diagonal,
// negative diagonal, and nonpositive row sums with at least one strictly
// negative (so absorption happens).
func New(beta []float64, t *mat.Matrix) (*Dist, error) {
	s := len(beta)
	if s == 0 || t.Rows() != s || t.Cols() != s {
		return nil, fmt.Errorf("%w: β has %d entries, T is %dx%d", ErrInvalid, s, t.Rows(), t.Cols())
	}
	var sum float64
	for i, b := range beta {
		if b < 0 || math.IsNaN(b) {
			return nil, fmt.Errorf("%w: β[%d] = %g", ErrInvalid, i, b)
		}
		sum += b
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: β sums to %g", ErrInvalid, sum)
	}
	exit := make([]float64, s)
	anyExit := false
	for i := 0; i < s; i++ {
		var row float64
		for j := 0; j < s; j++ {
			v := t.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite T[%d][%d]", ErrInvalid, i, j)
			}
			if i == j {
				if v >= 0 {
					return nil, fmt.Errorf("%w: T[%d][%d] = %g must be negative", ErrInvalid, i, j, v)
				}
			} else if v < 0 {
				return nil, fmt.Errorf("%w: negative off-diagonal T[%d][%d]", ErrInvalid, i, j)
			}
			row += v
		}
		if row > 1e-9 {
			return nil, fmt.Errorf("%w: row %d of T sums to %g > 0", ErrInvalid, i, row)
		}
		exit[i] = -row
		if exit[i] < 0 {
			exit[i] = 0
		}
		if exit[i] > 0 {
			anyExit = true
		}
	}
	if !anyExit {
		return nil, fmt.Errorf("%w: no exit rates (absorption impossible)", ErrInvalid)
	}
	invT, err := mat.Inverse(t.Clone().Scale(-1))
	if err != nil {
		return nil, fmt.Errorf("%w: singular −T", ErrInvalid)
	}
	b := make([]float64, s)
	copy(b, beta)
	return &Dist{beta: b, t: t.Clone(), exit: exit, invT: invT}, nil
}

// MustNew is New but panics on error.
func MustNew(beta []float64, t *mat.Matrix) *Dist {
	d, err := New(beta, t)
	if err != nil {
		panic(err)
	}
	return d
}

// Exponential returns the one-phase PH (an exponential distribution).
func Exponential(rate float64) (*Dist, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("%w: rate %g", ErrInvalid, rate)
	}
	return New([]float64{1}, mat.MustFromRows([][]float64{{-rate}}))
}

// Erlang returns the Erlang-k distribution with the given stage rate
// (mean k/stageRate, SCV 1/k).
func Erlang(k int, stageRate float64) (*Dist, error) {
	if k < 1 || stageRate <= 0 {
		return nil, fmt.Errorf("%w: Erlang(%d, %g)", ErrInvalid, k, stageRate)
	}
	t := mat.New(k, k)
	for i := 0; i < k; i++ {
		t.Set(i, i, -stageRate)
		if i+1 < k {
			t.Set(i, i+1, stageRate)
		}
	}
	beta := make([]float64, k)
	beta[0] = 1
	return New(beta, t)
}

// Hyperexponential returns the mixture of exponentials: with probability
// probs[i], the sample is exponential with rates[i] (SCV > 1 unless
// degenerate).
func Hyperexponential(probs, rates []float64) (*Dist, error) {
	if len(probs) != len(rates) || len(probs) == 0 {
		return nil, fmt.Errorf("%w: %d probs, %d rates", ErrInvalid, len(probs), len(rates))
	}
	t := mat.New(len(probs), len(probs))
	beta := make([]float64, len(probs))
	var sum float64
	for i := range probs {
		if probs[i] < 0 || rates[i] <= 0 {
			return nil, fmt.Errorf("%w: branch %d (%g, %g)", ErrInvalid, i, probs[i], rates[i])
		}
		sum += probs[i]
		beta[i] = probs[i]
		t.Set(i, i, -rates[i])
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: probabilities sum to %g", ErrInvalid, sum)
	}
	return New(beta, t)
}

// Coxian returns the Coxian distribution with the given stage rates: stage i
// completes at rates[i] and then either continues to stage i+1 (with
// probability cont[i]) or absorbs. cont must have one entry fewer than
// rates. Coxian representations are dense in the PH class and are the usual
// shape for fitted service laws.
func Coxian(rates, cont []float64) (*Dist, error) {
	n := len(rates)
	if n == 0 || len(cont) != n-1 {
		return nil, fmt.Errorf("%w: Coxian with %d rates and %d continuation probs", ErrInvalid, n, len(cont))
	}
	t := mat.New(n, n)
	for i := 0; i < n; i++ {
		if rates[i] <= 0 {
			return nil, fmt.Errorf("%w: Coxian rate %g at stage %d", ErrInvalid, rates[i], i)
		}
		t.Set(i, i, -rates[i])
		if i+1 < n {
			if cont[i] < 0 || cont[i] > 1 {
				return nil, fmt.Errorf("%w: Coxian continuation %g at stage %d", ErrInvalid, cont[i], i)
			}
			t.Set(i, i+1, rates[i]*cont[i])
		}
	}
	beta := make([]float64, n)
	beta[0] = 1
	return New(beta, t)
}

// FitTwoMoment returns a PH distribution matching the given mean and SCV by
// the classical recipe: an Erlang-k for SCV ≤ 1 (k = ⌈1/SCV⌉, matched in
// mean with SCV = 1/k, exact when 1/SCV is integral), an exponential for
// SCV = 1, and a balanced-means two-phase hyperexponential for SCV > 1
// (exact).
func FitTwoMoment(mean, scv float64) (*Dist, error) {
	switch {
	case mean <= 0 || scv <= 0:
		return nil, fmt.Errorf("%w: mean %g, scv %g", ErrInvalid, mean, scv)
	case scv == 1:
		return Exponential(1 / mean)
	case scv < 1:
		k := int(math.Ceil(1 / scv))
		return Erlang(k, float64(k)/mean)
	default:
		// Balanced-means H2: p1/r1 = p2/r2 = mean/2.
		root := math.Sqrt((scv - 1) / (scv + 1))
		p1 := (1 + root) / 2
		p2 := 1 - p1
		r1 := 2 * p1 / mean
		r2 := 2 * p2 / mean
		return Hyperexponential([]float64{p1, p2}, []float64{r1, r2})
	}
}

// Order returns the number of transient phases S.
func (d *Dist) Order() int { return len(d.beta) }

// Beta returns a copy of the initial phase distribution.
func (d *Dist) Beta() []float64 {
	out := make([]float64, len(d.beta))
	copy(out, d.beta)
	return out
}

// T returns a copy of the transient generator.
func (d *Dist) T() *mat.Matrix { return d.t.Clone() }

// ExitRates returns a copy of t = −T·1.
func (d *Dist) ExitRates() []float64 {
	out := make([]float64, len(d.exit))
	copy(out, d.exit)
	return out
}

// Moment returns the k-th raw moment, E[X^k] = k!·β(−T)⁻ᵏ·1.
func (d *Dist) Moment(k int) float64 {
	if k < 1 {
		panic("phtype: moment order must be >= 1")
	}
	v := d.Beta()
	fact := 1.0
	for i := 1; i <= k; i++ {
		v = d.invT.Transpose().MulVec(v)
		fact *= float64(i)
	}
	return fact * mat.Sum(v)
}

// Mean returns E[X].
func (d *Dist) Mean() float64 { return d.Moment(1) }

// Rate returns 1/E[X].
func (d *Dist) Rate() float64 { return 1 / d.Mean() }

// SCV returns the squared coefficient of variation.
func (d *Dist) SCV() float64 {
	m1 := d.Moment(1)
	return d.Moment(2)/(m1*m1) - 1
}

// CDF returns P(X ≤ x) via uniformized matrix exponential: 1 − β·exp(Tx)·1.
func (d *Dist) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	s := d.Order()
	// Uniformize: P = I + T/θ; exp(Tx) = Σ_k e^{−θx}(θx)^k/k! · P^k.
	theta := 0.0
	for i := 0; i < s; i++ {
		if r := -d.t.At(i, i); r > theta {
			theta = r
		}
	}
	p := d.t.Clone().Scale(1 / theta)
	for i := 0; i < s; i++ {
		p.Add(i, i, 1)
	}
	v := d.Beta() // v = β·P^k as we go
	lambda := theta * x
	logTerm := -lambda // log of e^{−λ}λ^0/0!
	survival := 0.0
	// Sum until the Poisson tail is negligible.
	kMax := int(lambda + 12*math.Sqrt(lambda+4) + 30)
	for k := 0; ; k++ {
		survival += math.Exp(logTerm) * mat.Sum(v)
		if k >= kMax {
			break
		}
		logTerm += math.Log(lambda) - math.Log(float64(k+1))
		v = p.Transpose().MulVec(v)
	}
	if survival < 0 {
		survival = 0
	}
	if survival > 1 {
		survival = 1
	}
	return 1 - survival
}
