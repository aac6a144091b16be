package sim_test

import (
	"errors"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/phtype"
	"bgperf/internal/sim"
)

// TestValidationMatchesCore runs every model-field rule of core.Config
// through both engines: core.NewModel and sim.RunOpts (on the config
// sim.FromModel projects) must reject each defect, naming the same Field,
// with the solver's error wrapping core.ErrConfig and the simulator's
// sim.ErrConfig.
func TestValidationMatchesCore(t *testing.T) {
	arr, err := arrival.Poisson(1)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := phtype.Exponential(2)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{Arrival: arr, ServiceRate: 2, BGProb: 0.3, BGBuffer: 2, IdleRate: 1}
	tests := []struct {
		name  string
		mut   func(*core.Config)
		field string
	}{
		{"nil arrival", func(c *core.Config) { c.Arrival = nil }, "Arrival"},
		{"no service", func(c *core.Config) { c.ServiceRate = 0 }, "ServiceRate"},
		{"service law and rate", func(c *core.Config) { c.Service = exp }, "Service"},
		{"service MAP and rate", func(c *core.Config) { c.ServiceMAP = arr }, "ServiceMAP"},
		{"probability above 1", func(c *core.Config) { c.BGProb = 1.5 }, "BGProb"},
		{"negative buffer", func(c *core.Config) { c.BGBuffer = -1 }, "BGBuffer"},
		{"negative class-2 probability", func(c *core.Config) { c.BG2Prob = -0.1 }, "BG2Prob"},
		{"probabilities above 1", func(c *core.Config) { c.BGProb, c.BG2Prob = 0.7, 0.7 }, "BG2Prob"},
		{"negative class-2 buffer", func(c *core.Config) { c.BG2Prob, c.BG2Buffer = 0.2, -1 }, "BG2Buffer"},
		{"idle law and rate", func(c *core.Config) { c.IdleWait = exp }, "IdleWait"},
		{"no idle rate", func(c *core.Config) { c.IdleRate = 0 }, "IdleRate"},
		{"unknown idle policy", func(c *core.Config) { c.IdlePolicy = 7 }, "IdlePolicy"},
		{"modulation above 1", func(c *core.Config) { c.ModFactor = 1.5 }, "ModFactor"},
		{"unknown admission", func(c *core.Config) { c.BGAdmit = 9 }, "BGAdmit"},
		{"negative threshold", func(c *core.Config) {
			c.BGAdmit, c.FGThreshold = core.AdmitUtilThreshold, -1
		}, "FGThreshold"},
		{"threshold without policy", func(c *core.Config) { c.FGThreshold = 2 }, "FGThreshold"},
		{"deadline without rate", func(c *core.Config) { c.BGAdmit = core.AdmitDeadline }, "DeadlineRate"},
		{"rate without deadline", func(c *core.Config) { c.DeadlineRate = 0.5 }, "DeadlineRate"},
		{"class 2 with admission", func(c *core.Config) {
			c.BG2Prob, c.BGAdmit = 0.2, core.AdmitUtilThreshold
		}, "BG2Prob"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			_, coreErr := core.NewModel(cfg)
			_, simErr := sim.RunOpts(nil, sim.FromModel(cfg, 1, 0, 10), nil)
			for _, c := range []struct {
				engine   string
				err      error
				sentinel error
			}{
				{"core", coreErr, core.ErrConfig},
				{"sim", simErr, sim.ErrConfig},
			} {
				var verr *core.ValidationError
				switch {
				case !errors.Is(c.err, c.sentinel):
					t.Errorf("%s: error %v does not wrap %v", c.engine, c.err, c.sentinel)
				case !errors.As(c.err, &verr):
					t.Errorf("%s: error %v is not a *core.ValidationError", c.engine, c.err)
				case verr.Field != tt.field:
					t.Errorf("%s: Field = %q, want %q", c.engine, verr.Field, tt.field)
				}
			}
		})
	}
	// The base config itself must pass both, or every case above proves
	// nothing.
	if _, err := core.NewModel(base); err != nil {
		t.Fatalf("core rejects the base config: %v", err)
	}
	if _, err := sim.RunOpts(nil, sim.FromModel(base, 1, 0, 10), nil); err != nil {
		t.Fatalf("sim rejects the base config: %v", err)
	}
}
