package mat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBlockedMatchesNaive compares mulIntoBlocked against mulIntoNaive
// directly at sizes straddling blockedMulMin, including rectangular shapes
// and sparse operands. The blocked kernel accumulates each output element in
// the same k-ascending order as the naive one, so the results must agree to
// 1e-15 (in practice bit-for-bit).
func TestBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := []struct{ m, k, n int }{
		{4, 4, 4},
		{8, 8, 8},
		{23, 23, 23},
		{24, 24, 24},
		{25, 25, 25},
		{40, 40, 40},
		{64, 64, 64},
		{23, 25, 24}, // straddles the threshold in every dimension
		{30, 7, 50},  // short inner dimension exercises the k tail loop
		{5, 60, 33},  // long inner dimension, many unrolled k quads
	}
	for _, sh := range shapes {
		for _, sparsity := range []float64{0, 0.4, 0.95} {
			a := randMat(rng, sh.m, sh.k, sparsity)
			b := randMat(rng, sh.k, sh.n, sparsity)
			want := New(sh.m, sh.n)
			mulIntoNaive(want, a, b)
			got := New(sh.m, sh.n)
			mulIntoBlocked(got, a, b)
			requireClose(t, got, want, 1e-15, "blocked vs naive")

			// And through the public dispatching entry point.
			pub := New(sh.m, sh.n)
			pub.MulInto(a, b)
			requireClose(t, pub, want, 1e-15, "MulInto dispatch")
		}
	}
}

// TestBlockedWideOutput exercises output widths beyond one j-tile so the
// tiling loop itself runs more than once.
func TestBlockedWideOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randMat(rng, 8, 16, 0.1)
	b := randMat(rng, 16, mulBlockJ+37, 0.1)
	want := New(8, mulBlockJ+37)
	mulIntoNaive(want, a, b)
	got := New(8, mulBlockJ+37)
	mulIntoBlocked(got, a, b)
	requireClose(t, got, want, 1e-15, "blocked wide output")
}

// TestMulIntoWorkersBitIdentical pins that MulInto is safe and exact under
// concurrent callers sharing read-only operands, as concurrent solves share a
// process's repeating blocks: each goroutine multiplies into its own
// destination and must get the serial product bit for bit, at orders on both
// sides of the naive/blocked kernel switch. Run under -race this also checks
// that the kernels never write their operands.
func TestMulIntoWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 8, blockedMulMin - 1, blockedMulMin, blockedMulMin + 1, 65, 153} {
		a := randMat(rng, n, n, 0)
		b := randMat(rng, n, n, 0)
		want := New(n, n)
		want.MulInto(a, b)
		const workers = 4
		got := make([]*Matrix, workers)
		var wg sync.WaitGroup
		for w := range got {
			got[w] = New(n, n)
			wg.Add(1)
			go func(dst *Matrix) {
				defer wg.Done()
				dst.MulInto(a, b)
			}(got[w])
		}
		wg.Wait()
		for w, g := range got {
			for i := range g.a {
				if math.Float64bits(g.a[i]) != math.Float64bits(want.a[i]) {
					t.Fatalf("n=%d caller %d: element %d differs: %g vs %g",
						n, w, i, g.a[i], want.a[i])
				}
			}
		}
	}
}

func benchmarkMulKernel(b *testing.B, n int, kernel func(dst, x, y *Matrix)) {
	rng := rand.New(rand.NewSource(29))
	x := randMat(rng, n, n, 0)
	y := randMat(rng, n, n, 0)
	dst := New(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, x, y)
	}
}

func BenchmarkMulIntoNaive64(b *testing.B)    { benchmarkMulKernel(b, 64, mulIntoNaive) }
func BenchmarkMulIntoBlocked64(b *testing.B)  { benchmarkMulKernel(b, 64, mulIntoBlocked) }
func BenchmarkMulIntoNaive128(b *testing.B)   { benchmarkMulKernel(b, 128, mulIntoNaive) }
func BenchmarkMulIntoBlocked128(b *testing.B) { benchmarkMulKernel(b, 128, mulIntoBlocked) }

func BenchmarkInverseInto64(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	a := diagDominant(rng, 64)
	f := NewLU(64)
	dst := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FactorizeInto(f, a); err != nil {
			b.Fatal(err)
		}
		f.InverseInto(dst)
	}
}
