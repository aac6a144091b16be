package phtype

import "bgperf/internal/rng"

// Compiled is a flattened sampler for a phase-type distribution, built once
// and driven by an external rng.Rand. Rather than walk the (β, T) matrices
// on every draw, Compiled precomputes the per-phase total rates and
// cumulative jump tables into contiguous arrays, so a draw costs one
// ziggurat exponential per phase visit plus a short linear scan, with no
// matrix access and no allocation. A Compiled is immutable and safe to share
// across goroutines (all mutable state lives in the caller's generator).
type Compiled struct {
	// cumBeta is the cumulative initial-phase distribution.
	cumBeta []float64
	// invRate[i] = 1 / (−T[i][i]), the mean sojourn of phase i.
	invRate []float64
	// Entries off[i]..off[i+1]-1 are phase i's off-diagonal jumps: cumRate
	// holds cumulative T[i][j] (compared against u·rate, u uniform on
	// [0, 1)), target the destination phases. A draw beyond the last
	// cumulative rate absorbs.
	off     []int32
	cumRate []float64
	target  []int32
	// expScale is nonzero for the one-phase (exponential) fast path.
	expScale float64
}

// Compile flattens d into a Compiled sampler.
func Compile(d *Dist) *Compiled {
	n := d.Order()
	c := &Compiled{
		cumBeta: make([]float64, n),
		invRate: make([]float64, n),
		off:     make([]int32, n+1),
	}
	acc := 0.0
	for i, b := range d.beta {
		acc += b
		c.cumBeta[i] = acc
	}
	for i := 0; i < n; i++ {
		c.invRate[i] = 1 / -d.t.At(i, i)
		cum := 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			cum += d.t.At(i, j)
			c.cumRate = append(c.cumRate, cum)
			c.target = append(c.target, int32(j))
		}
		c.off[i+1] = int32(len(c.cumRate))
	}
	if n == 1 {
		c.expScale = c.invRate[0]
	}
	return c
}

// Sample draws one absorption time using r as the randomness source.
func (c *Compiled) Sample(r *rng.Rand) float64 {
	if c.expScale > 0 {
		return r.ExpFloat64() * c.expScale
	}
	// Pick the initial phase.
	u := r.Float64()
	phase := len(c.cumBeta) - 1
	for i, b := range c.cumBeta {
		if u < b {
			phase = i
			break
		}
	}
	var total float64
	for {
		inv := c.invRate[phase]
		total += r.ExpFloat64() * inv
		// Choose the next phase or absorption: u scaled by the total exit
		// rate lands either inside the cumulative jump rates or beyond them
		// (the exit rate's share), which absorbs.
		u := r.Float64() / inv
		next := -1
		for j := c.off[phase]; j < c.off[phase+1]; j++ {
			if u < c.cumRate[j] {
				next = int(c.target[j])
				break
			}
		}
		if next < 0 {
			return total
		}
		phase = next
	}
}
