// Package arrival models Markovian Arrival Processes (MAPs) and their
// special cases used by the paper: the 2-state Markov-Modulated Poisson
// Process (MMPP), the Interrupted Poisson Process (IPP), the Poisson process,
// and phase-type renewal processes.
//
// A MAP of order A is described by two A×A matrices (D0, D1): D0 holds the
// phase transitions without an arrival (and the negative total rates on its
// diagonal) while D1 holds the transition rates that are accompanied by an
// arrival. D = D0 + D1 is the infinitesimal generator of the phase process.
//
// The package computes the descriptors the paper uses to characterize
// workloads — mean rate, squared coefficient of variation (SCV), and the
// lag-k autocorrelation function (ACF) of inter-arrival times (paper
// Eq. 1–3) — and fits 2-state MMPPs to target descriptors by moment matching
// (paper Sec. 3.1).
package arrival

import (
	"errors"
	"fmt"
	"math"

	"bgperf/internal/markov"
	"bgperf/internal/mat"
)

// ErrInvalidMAP reports (D0, D1) pairs that do not form a valid MAP.
var ErrInvalidMAP = errors.New("arrival: invalid MAP")

// MAP is a Markovian Arrival Process (D0, D1). The zero value is not usable;
// construct with New or one of the named constructors.
//
// A MAP is immutable after construction: all transforming methods return new
// processes, so a MAP may be shared freely across goroutines.
type MAP struct {
	d0, d1 *mat.Matrix

	// Cached analytics, computed eagerly by New.
	pi     []float64 // time-stationary phase distribution: π(D0+D1)=0
	embPi  []float64 // event-stationary phase distribution: p = πD1/λ
	rate   float64   // mean arrival rate λ = πD1e
	invD0  *mat.Matrix
	pEmbed *mat.Matrix // P = (−D0)⁻¹ D1, the phase chain embedded at arrivals
}

// New validates (d0, d1) and returns the MAP. Requirements: matching square
// shapes; D1 ≥ 0 entrywise; D0 off-diagonal ≥ 0; D0+D1 an irreducible
// generator; positive mean arrival rate.
func New(d0, d1 *mat.Matrix) (*MAP, error) {
	n := d0.Rows()
	if d0.Cols() != n || d1.Rows() != n || d1.Cols() != n || n == 0 {
		return nil, fmt.Errorf("%w: D0 is %dx%d, D1 is %dx%d", ErrInvalidMAP,
			d0.Rows(), d0.Cols(), d1.Rows(), d1.Cols())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d1.At(i, j) < 0 {
				return nil, fmt.Errorf("%w: D1[%d][%d] = %g < 0", ErrInvalidMAP, i, j, d1.At(i, j))
			}
			if i != j && d0.At(i, j) < 0 {
				return nil, fmt.Errorf("%w: off-diagonal D0[%d][%d] = %g < 0", ErrInvalidMAP, i, j, d0.At(i, j))
			}
		}
	}
	d := d0.AddMat(d1)
	if err := markov.CheckGenerator(d, 1e-8); err != nil {
		return nil, fmt.Errorf("%w: D0+D1: %v", ErrInvalidMAP, err)
	}
	m := &MAP{d0: d0.Clone(), d1: d1.Clone()}
	var err error
	if n == 1 {
		m.pi = []float64{1}
	} else {
		// GTH is subtraction-free and stays exact on the stiff modulating
		// chains of trace-fitted MMPPs (rates spanning many decades).
		m.pi, err = markov.StationaryCTMCGTH(d)
		if err != nil {
			return nil, fmt.Errorf("%w: phase process: %v", ErrInvalidMAP, err)
		}
	}
	m.rate = mat.Sum(m.d1.VecMul(m.pi))
	if m.rate <= 0 || math.IsNaN(m.rate) {
		return nil, fmt.Errorf("%w: mean rate %g must be positive", ErrInvalidMAP, m.rate)
	}
	negD0 := m.d0.Clone().Scale(-1)
	m.invD0, err = mat.Inverse(negD0)
	if err != nil {
		return nil, fmt.Errorf("%w: −D0 is singular", ErrInvalidMAP)
	}
	m.pEmbed = m.invD0.Mul(m.d1)
	m.embPi = mat.ScaleVec(m.d1.VecMul(m.pi), 1/m.rate)
	return m, nil
}

// MustNew is New but panics on error; for constructing known-valid processes.
func MustNew(d0, d1 *mat.Matrix) *MAP {
	m, err := New(d0, d1)
	if err != nil {
		panic(err)
	}
	return m
}

// Order returns the number of phases.
func (m *MAP) Order() int { return m.d0.Rows() }

// D0 returns a copy of the D0 matrix.
func (m *MAP) D0() *mat.Matrix { return m.d0.Clone() }

// D1 returns a copy of the D1 matrix.
func (m *MAP) D1() *mat.Matrix { return m.d1.Clone() }

// TimeStationary returns a copy of the time-stationary phase distribution π,
// the solution of π(D0+D1)=0, πe=1 used throughout the paper.
func (m *MAP) TimeStationary() []float64 {
	out := make([]float64, len(m.pi))
	copy(out, m.pi)
	return out
}

// Rate returns the mean arrival rate λ = πD1e (paper Eq. 1).
func (m *MAP) Rate() float64 { return m.rate }

// MeanInterarrival returns 1/λ.
func (m *MAP) MeanInterarrival() float64 { return 1 / m.rate }

// SCV returns the squared coefficient of variation of inter-arrival times,
// CV² = 2λ·π(−D0)⁻¹e − 1 (paper Eq. 2).
func (m *MAP) SCV() float64 {
	return 2*m.rate*mat.Dot(m.pi, m.invD0.RowSums()) - 1
}

// CV returns the coefficient of variation of inter-arrival times.
func (m *MAP) CV() float64 { return math.Sqrt(m.SCV()) }

// Moment returns the k-th raw moment of the stationary inter-arrival time,
// E[X^k] = k!·p(−D0)⁻ᵏe, for k ≥ 1.
func (m *MAP) Moment(k int) float64 {
	if k < 1 {
		panic("arrival: moment order must be >= 1")
	}
	v := make([]float64, len(m.embPi))
	copy(v, m.embPi)
	fact := 1.0
	for i := 1; i <= k; i++ {
		v = m.invD0.Transpose().MulVec(v) // v = v · invD0 as a row vector
		fact *= float64(i)
	}
	return fact * mat.Sum(v)
}

// ACF returns the lag-k autocorrelation of inter-arrival times,
// ACF(k) = (λ·π Pᵏ (−D0)⁻¹ e − 1)/CV² (paper Eq. 3), for k ≥ 1.
// A renewal process (e.g. Poisson, IPP) has ACF(k) = 0 for all k.
func (m *MAP) ACF(k int) float64 {
	if k < 1 {
		panic("arrival: ACF lag must be >= 1")
	}
	series := m.ACFSeries(k)
	return series[k-1]
}

// ACFSeries returns [ACF(1), …, ACF(maxLag)] computed with a single pass of
// repeated vector-matrix products.
func (m *MAP) ACFSeries(maxLag int) []float64 {
	if maxLag < 1 {
		return nil
	}
	scv := m.SCV()
	tail := m.invD0.RowSums() // (−D0)⁻¹ e
	out := make([]float64, maxLag)
	if scv <= 0 {
		// Deterministic-like processes cannot arise from a MAP with finite
		// phases except degenerately; guard against division blowups.
		return out
	}
	v := make([]float64, len(m.pi))
	copy(v, m.pi)
	for k := 1; k <= maxLag; k++ {
		v = m.pEmbed.Transpose().MulVec(v) // v = v·P as a row vector
		out[k-1] = (m.rate*mat.Dot(v, tail) - 1) / scv
	}
	return out
}

// ACFDecay returns the geometric decay factor γ of the ACF: the second
// largest modulus eigenvalue of P = (−D0)⁻¹D1. For order-2 processes this is
// exact (ACF(k) = ACF(1)·γ^(k−1)); for higher orders it is the asymptotic
// decay rate, estimated by power iteration on the deflated chain.
func (m *MAP) ACFDecay() float64 {
	n := m.Order()
	if n == 1 {
		return 0
	}
	if n == 2 {
		// Eigenvalues of the stochastic P are 1 and tr(P)−1.
		return m.pEmbed.At(0, 0) + m.pEmbed.At(1, 1) - 1
	}
	// Deflate the Perron eigenvalue: Pd = P − e·p where p is the stationary
	// vector of P; the dominant eigenvalue of Pd is the subdominant of P.
	p := m.embPi
	pd := m.pEmbed.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pd.Add(i, j, -p[j])
		}
	}
	return mat.SpectralRadius(pd, 1e-12, 10000)
}

// ScaleTime multiplies every rate by c > 0, dividing all time scales by c.
// Mean rate becomes c·λ while CV and the event-lag ACF are unchanged. This is
// exactly how the paper sweeps foreground utilization ("we scale the mean of
// the two MMPPs").
func (m *MAP) ScaleTime(c float64) (*MAP, error) {
	if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
		return nil, fmt.Errorf("%w: time scale %g must be positive and finite", ErrInvalidMAP, c)
	}
	return New(m.d0.Clone().Scale(c), m.d1.Clone().Scale(c))
}

// WithRate rescales the process so its mean rate equals target.
func (m *MAP) WithRate(target float64) (*MAP, error) {
	if target <= 0 {
		return nil, fmt.Errorf("%w: target rate %g must be positive", ErrInvalidMAP, target)
	}
	return m.ScaleTime(target / m.rate)
}

// Superpose returns the superposition of m and n (arrivals of both streams),
// the standard Kronecker-sum construction.
func (m *MAP) Superpose(n *MAP) (*MAP, error) {
	ia := mat.Identity(m.Order())
	ib := mat.Identity(n.Order())
	d0 := m.d0.Kron(ib).AddInPlace(ia.Kron(n.d0))
	d1 := m.d1.Kron(ib).AddInPlace(ia.Kron(n.d1))
	return New(d0, d1)
}

// String summarizes the process.
func (m *MAP) String() string {
	return fmt.Sprintf("MAP(order=%d, rate=%.6g, cv=%.4g, acf1=%.4g)",
		m.Order(), m.Rate(), m.CV(), m.ACFSeries(1)[0])
}
