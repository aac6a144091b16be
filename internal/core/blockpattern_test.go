package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/mat"
)

// TestBuilderBlockMulBitIdentical pins the sparse/dense multiply agreement on
// the exact zero-block patterns the real chain builder emits — not randomized
// stand-ins. For every QBD block of an MMPP model (A0, A1, A2, and each
// boundary Up/Down/Local plus RepDown), multiplying by a dense matrix through
// the CSR paths must reproduce the dense MulInto bits exactly, on both sides.
// This is the contract that lets the solver swap in sparse kernels purely as
// a wall-clock decision. The two-class case covers the extra class-2 blocks
// (a second BG-serving block per level, one admission branch per class).
func TestBuilderBlockMulBitIdentical(t *testing.T) {
	twoClassArrival, err := arrival.MMPP2(0.3, 0.1, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if twoClassArrival, err = twoClassArrival.WithRate(0.4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mmpp", mmppCfg(t, 0.4, 1, 0.3, 4, 0.8)},
		{"two-class", twoClassCfg(t, twoClassArrival, 1, 0.2, 0.3, 3, 2, 0.7)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBlockMulBitIdentical(t, tc.cfg) })
	}
}

func checkBlockMulBitIdentical(t *testing.T, cfg Config) {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boundary, proc, err := m.qbdBlocks()
	if err != nil {
		t.Fatal(err)
	}

	blocks := map[string]*mat.Matrix{
		"A0":      proc.A0(),
		"A1":      proc.A1(),
		"A2":      proc.A2(),
		"RepDown": boundary.RepDown,
	}
	for j := range boundary.Local {
		blocks[fmt.Sprintf("Local[%d]", j)] = boundary.Local[j]
		blocks[fmt.Sprintf("Up[%d]", j)] = boundary.Up[j]
		if boundary.Down[j] != nil {
			blocks[fmt.Sprintf("Down[%d]", j)] = boundary.Down[j]
		}
	}

	rng := rand.New(rand.NewSource(7))
	for name, b := range blocks {
		if b == nil {
			continue
		}
		s := mat.NewSparse(b)
		if d := s.Dense(); !d.Equalf(b, 0) {
			t.Fatalf("%s: Dense(NewSparse(b)) != b", name)
		}

		// b · dense, via the CSR left-multiply vs the dense kernel.
		right := randDense(rng, b.Cols(), b.Cols())
		want := mat.New(b.Rows(), b.Cols())
		want.MulInto(b, right)
		got := mat.New(b.Rows(), b.Cols())
		s.MulInto(got, right)
		requireSameBits(t, name+" (sparse·dense)", got, want)

		// dense · b, via the CSR right-multiply vs the dense kernel.
		left := randDense(rng, b.Rows(), b.Rows())
		want2 := mat.New(b.Rows(), b.Cols())
		want2.MulInto(left, b)
		got2 := mat.New(b.Rows(), b.Cols())
		s.MulRightInto(got2, left)
		requireSameBits(t, name+" (dense·sparse)", got2, want2)
	}
}

func randDense(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func requireSameBits(t *testing.T, what string, got, want *mat.Matrix) {
	t.Helper()
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) got bits %x want %x (%g vs %g)",
					what, i, j, math.Float64bits(g), math.Float64bits(w), g, w)
			}
		}
	}
}
