package sim

import (
	"errors"
	"math"
	"testing"

	"bgperf/internal/core"
)

func TestMultiValidation(t *testing.T) {
	ap := poisson(t, 1)
	tests := []struct {
		name  string
		cfg   MultiConfig
		field string
	}{
		{"nil arrival", MultiConfig{ServiceRate: 1, MeasureTime: 10}, "Arrival"},
		{"no service", MultiConfig{Arrival: ap, MeasureTime: 10}, "ServiceRate"},
		{"bad probs", MultiConfig{Arrival: ap, ServiceRate: 2, BG1Prob: 0.7, BG2Prob: 0.7, MeasureTime: 10}, "BG1Prob"},
		{"negative buffer", MultiConfig{Arrival: ap, ServiceRate: 2, BG1Buffer: -1, MeasureTime: 10}, "BG1Buffer"},
		{"no idle rate", MultiConfig{Arrival: ap, ServiceRate: 2, BG1Prob: 0.2, BG1Buffer: 2, MeasureTime: 10}, "IdleRate"},
		{"no window", MultiConfig{Arrival: ap, ServiceRate: 2}, "MeasureTime"},
		{"negative warmup", MultiConfig{Arrival: ap, ServiceRate: 2, MeasureTime: 1, WarmupTime: -1}, "WarmupTime"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := RunMulti(tt.cfg)
			if !errors.Is(err, ErrMultiConfig) {
				t.Fatalf("error %v does not wrap ErrMultiConfig", err)
			}
			var verr *core.ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error %v is not a *core.ValidationError", err)
			}
			if verr.Field != tt.field {
				t.Errorf("Field = %q, want %q", verr.Field, tt.field)
			}
		})
	}
}

func TestMultiDeterministic(t *testing.T) {
	cfg := MultiConfig{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BG1Prob: 0.3, BG2Prob: 0.3, BG1Buffer: 3, BG2Buffer: 3,
		IdleRate: 1, Seed: 5, WarmupTime: 100, MeasureTime: 20000,
	}
	r1, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *r1 != *r2 {
		t.Error("same seed produced different multiclass results")
	}
}

func TestMultiFlowConservation(t *testing.T) {
	cfg := MultiConfig{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BG1Prob: 0.4, BG2Prob: 0.4, BG1Buffer: 2, BG2Buffer: 2,
		IdleRate: 0.8, Seed: 9, WarmupTime: 500, MeasureTime: 1e5,
	}
	r, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Counters
	adm1 := c.GeneratedBG1 - c.DroppedBG1
	adm2 := c.GeneratedBG2 - c.DroppedBG2
	if diff := adm1 - c.CompletedBG1; diff < -5 || diff > 5 {
		t.Errorf("class 1: admitted %d vs completed %d", adm1, c.CompletedBG1)
	}
	if diff := adm2 - c.CompletedBG2; diff < -5 || diff > 5 {
		t.Errorf("class 2: admitted %d vs completed %d", adm2, c.CompletedBG2)
	}
	// Server-state probabilities partition.
	total := r.UtilFG + r.UtilBG1 + r.UtilBG2 + r.ProbIdleWait + r.ProbEmpty
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("state probabilities sum to %v", total)
	}
}

func TestMultiSingleClassMatchesSingleSim(t *testing.T) {
	// With p2 = 0 the two-class simulator must match the single-class one
	// statistically (different RNG streams, so compare loosely).
	base := Config{
		Arrival: poisson(t, 1), ServiceRate: 2, BGProb: 0.5, BGBuffer: 4,
		IdleRate: 1, Seed: 3, WarmupTime: 1000, MeasureTime: 4e5,
	}
	single, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti(MultiConfig{
		Arrival: base.Arrival, ServiceRate: 2, BG1Prob: 0.5, BG1Buffer: 4,
		IdleRate: 1, Seed: 3, WarmupTime: 1000, MeasureTime: 4e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.Metrics.QLenFG-multi.QLenFG) > 0.05*single.Metrics.QLenFG+0.02 {
		t.Errorf("QLenFG: single %v vs multi %v", single.Metrics.QLenFG, multi.QLenFG)
	}
	if math.Abs(single.Metrics.CompBG-multi.CompBG1) > 0.02 {
		t.Errorf("CompBG: single %v vs multi %v", single.Metrics.CompBG, multi.CompBG1)
	}
}

func TestMultiPerPeriodPolicy(t *testing.T) {
	cfg := MultiConfig{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BG1Prob: 0.4, BG2Prob: 0.4, BG1Buffer: 3, BG2Buffer: 3,
		IdleRate: 0.5, IdlePolicy: core.IdleWaitPerPeriod,
		Seed: 13, WarmupTime: 500, MeasureTime: 2e5,
	}
	r, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CompBG1 <= 0 || r.CompBG2 <= 0 {
		t.Errorf("per-period run produced no completions: %+v", r)
	}
}
