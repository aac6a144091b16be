package qbd

import (
	"strings"
	"testing"

	"bgperf/internal/markov"
	"bgperf/internal/mat"
)

// TestNewValidationOrderStable checks that when several blocks are malformed,
// New reports the same block every time — validation follows the fixed order
// A0, A1, A2 rather than map iteration order.
func TestNewValidationOrderStable(t *testing.T) {
	// A0 is the 2x2 reference shape; both A1 and A2 are mis-shaped, so an
	// order-dependent implementation could report either.
	a0 := mat.New(2, 2)
	a1 := mat.New(3, 3)
	a2 := mat.New(4, 4)
	const want = "A1 is 3x3, want 2x2"
	var first string
	for i := 0; i < 20; i++ {
		_, err := New(a0, a1, a2)
		if err == nil {
			t.Fatal("New accepted mismatched block shapes")
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("iteration %d: error %q does not mention %q", i, err, want)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("iteration %d: error changed from %q to %q", i, first, err)
		}
	}
}

// TestDriftCached checks that Drift is computed once per process: Stable, R,
// and repeated Drift calls must share a single StationaryCTMC solve.
func TestDriftCached(t *testing.T) {
	p, _ := me2q(0.4, 1.0)
	markov.ResetStationaryCalls()
	if _, _, err := p.Drift(); err != nil {
		t.Fatal(err)
	}
	if got := markov.StationaryCalls(); got != 1 {
		t.Fatalf("first Drift made %d StationaryCTMC calls, want 1", got)
	}
	if _, err := p.Stable(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Drift(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.R(); err != nil {
		t.Fatal(err)
	}
	if got := markov.StationaryCalls(); got != 1 {
		t.Fatalf("Stable+Drift+R made %d StationaryCTMC calls in total, want 1", got)
	}
}
