package plan

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bgperf/internal/core"
	"bgperf/internal/qbd"
	"bgperf/internal/trace"
	"bgperf/internal/workload"
)

// FuzzPlanFromTrace drives the complete trace-to-plan pipeline — NDJSON
// parse, MMPP(2) fit, inverse search — with arbitrary upload bytes and
// requires every failure to be one of the pipeline's typed errors
// (trace.ErrFormat, workload.ErrFitTrace, *core.ValidationError,
// qbd.ErrUnstable, ErrInfeasible): no panics, no stringly-typed errors the
// daemon could not map to a status code. Seed inputs cover the corpus in
// testdata/fuzz/FuzzPlanFromTrace plus generated valid traces.
func FuzzPlanFromTrace(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"interarrival\": 50}\n"))
	f.Add([]byte("{\"interarrival\": 50, \"service\": 6}\n{\"interarrival\": 10}\n"))
	f.Add([]byte("{\"interarrival\": -3}\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte("{\"interarrival\": 1e308}\n{\"interarrival\": 1e-308}\n"))
	// A fittable trace: bursty alternation keeps the sample SCV above 1.
	var bursty bytes.Buffer
	for i := 0; i < 1200; i++ {
		gap := "2"
		if i%13 == 0 {
			gap = "400"
		}
		bursty.WriteString("{\"interarrival\": " + gap + "}\n")
	}
	f.Add(bursty.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, trace.ErrFormat) {
				t.Fatalf("ReadNDJSON returned an untyped error: %v", err)
			}
			return
		}
		m, err := workload.FromTrace(tr)
		if err != nil {
			if !errors.Is(err, workload.ErrFitTrace) {
				t.Fatalf("FromTrace returned an untyped error: %v", err)
			}
			return
		}
		cfg := core.Config{
			Arrival:     m,
			ServiceRate: workload.ServiceRatePerMs,
			BGBuffer:    5,
			IdleRate:    workload.ServiceRatePerMs,
		}
		res, err := Maximize(cfg, SLO{QLenFG: 1}, Options{})
		if err != nil {
			var verr *core.ValidationError
			switch {
			case errors.Is(err, ErrInfeasible), errors.Is(err, qbd.ErrUnstable),
				errors.Is(err, qbd.ErrNoConvergence), errors.As(err, &verr):
				return
			default:
				t.Fatalf("Maximize returned an untyped error: %v", err)
			}
		}
		if res.Value < 0 || res.Value > 1 || strings.TrimSpace(res.Var) == "" {
			t.Fatalf("malformed plan result: %+v", res)
		}
		if !res.SLO.Holds(res.Metrics) {
			t.Fatalf("reported frontier violates its own SLO: %+v", res)
		}
	})
}
