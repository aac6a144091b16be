package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"bgperf/internal/core"
)

// Two background priority classes (Config.BG2Prob > 0) through the one
// event loop.

// TestMultiValidation checks that each defect of a two-class config is
// rejected with a *core.ValidationError naming the offending field.
func TestMultiValidation(t *testing.T) {
	base := Config{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BGProb: 0.3, BG2Prob: 0.3, BGBuffer: 2, BG2Buffer: 2,
		IdleRate: 1, MeasureTime: 10,
	}
	if _, err := Run(base); err != nil {
		t.Fatalf("valid two-class config rejected: %v", err)
	}
	tests := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"nil arrival", func(c *Config) { c.Arrival = nil }, "Arrival"},
		{"no service", func(c *Config) { c.ServiceRate = 0 }, "ServiceRate"},
		{"bad probs", func(c *Config) { c.BGProb, c.BG2Prob = 0.7, 0.7 }, "BG2Prob"},
		{"negative class-2 probability", func(c *Config) { c.BG2Prob = -0.1 }, "BG2Prob"},
		{"negative buffer", func(c *Config) { c.BG2Buffer = -1 }, "BG2Buffer"},
		{"no idle rate", func(c *Config) { c.BGBuffer = 0; c.IdleRate = 0 }, "IdleRate"},
		{"no window", func(c *Config) { c.MeasureTime = 0 }, "MeasureTime"},
		{"negative warmup", func(c *Config) { c.WarmupTime = -1 }, "WarmupTime"},
		{"class 2 with util threshold", func(c *Config) { c.BGAdmit = core.AdmitUtilThreshold }, "BG2Prob"},
		{"class 2 with deadline", func(c *Config) {
			c.BGAdmit = core.AdmitDeadline
			c.DeadlineRate = 0.5
		}, "BG2Prob"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			_, err := Run(cfg)
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("error %v does not wrap ErrConfig", err)
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
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BGProb: 0.3, BG2Prob: 0.3, BGBuffer: 3, BG2Buffer: 3,
		IdleRate: 1, Seed: 5, WarmupTime: 100, MeasureTime: 20000,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("same seed produced different two-class results")
	}
}

func TestMultiFlowConservation(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BGProb: 0.4, BG2Prob: 0.4, BGBuffer: 2, BG2Buffer: 2,
		IdleRate: 0.8, Seed: 9, WarmupTime: 500, MeasureTime: 1e5,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Counters
	if c.AdmittedBG+c.DroppedBG != c.GeneratedBG || c.AdmittedBG2+c.DroppedBG2 != c.GeneratedBG2 {
		t.Errorf("admitted + dropped != generated: %+v", c)
	}
	if diff := c.AdmittedBG - c.CompletedBG; diff < -5 || diff > 5 {
		t.Errorf("class 1: admitted %d vs completed %d", c.AdmittedBG, c.CompletedBG)
	}
	if diff := c.AdmittedBG2 - c.CompletedBG2; diff < -5 || diff > 5 {
		t.Errorf("class 2: admitted %d vs completed %d", c.AdmittedBG2, c.CompletedBG2)
	}
	// Server-state probabilities partition.
	m := r.Metrics
	total := m.UtilFG + m.UtilBG + m.BG2.Util + m.ProbIdleWait + m.ProbEmpty
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("state probabilities sum to %v", total)
	}
}

func TestMultiPerPeriodPolicy(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BGProb: 0.4, BG2Prob: 0.4, BGBuffer: 3, BG2Buffer: 3,
		IdleRate: 0.5, IdlePolicy: core.IdleWaitPerPeriod,
		Seed: 13, WarmupTime: 500, MeasureTime: 2e5,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.CompletedBG == 0 || r.Counters.CompletedBG2 == 0 {
		t.Errorf("per-period run completed no BG work of some class: %+v", r.Counters)
	}
	// Back-to-back draining: more BG services than idle-wait expiries.
	if done := r.Counters.CompletedBG + r.Counters.CompletedBG2; done <= r.Counters.IdleExpirations {
		t.Errorf("%d BG completions for %d idle expiries under per-period draining", done, r.Counters.IdleExpirations)
	}
}

func TestTwoClassReplicationMean(t *testing.T) {
	cfg := Config{
		Arrival: poisson(t, 1), ServiceRate: 2,
		BGProb: 0.3, BG2Prob: 0.4, BGBuffer: 3, BG2Buffer: 3,
		IdleRate: 1, Seed: 7, WarmupTime: 100, MeasureTime: 20000,
	}
	agg, err := RunReplications(cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mean.BG2 == nil {
		t.Fatal("replication mean lost the class-2 metrics")
	}
	var qlen, comp float64
	for _, m := range agg.RepMetrics {
		qlen += m.BG2.QLen / 3
		comp += m.BG2.Comp / 3
	}
	if math.Abs(agg.Mean.BG2.QLen-qlen) > 1e-12 || math.Abs(agg.Mean.BG2.Comp-comp) > 1e-12 {
		t.Errorf("class-2 mean (%v, %v), want (%v, %v)", agg.Mean.BG2.QLen, agg.Mean.BG2.Comp, qlen, comp)
	}
}
