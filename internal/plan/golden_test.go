package plan

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"bgperf/internal/core"
	"bgperf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/maximize.golden from the current search")

// The maximize golden pins every search mode of Maximize: all four decision
// variables, at SLO scales from infeasible (half the base point's queue
// length) to loose, on two workloads at two loads, plus a saturated
// foreground load. Each case records either the full Result or the exact
// error text. Numbers must match to 1e-9 relative; everything else exactly.
//
// Re-pin after an intentional change with:
//
//	go test ./internal/plan -run TestMaximizeGolden -update
//
// which rewrites only the cases that deviate; every other case keeps its
// pinned JSON byte for byte, so the diff shows just the cases that moved. A
// missing file, or one with a different case count, is written whole.
const (
	maximizeGoldenPath = "testdata/maximize.golden"
	maximizeGoldenTol  = 1e-9
)

// goldenCase is one pinned Maximize outcome.
type goldenCase struct {
	Case  string  `json:"case"`
	Plan  *Result `json:"plan,omitempty"`
	Error string  `json:"error,omitempty"`
	// cfg and v are the searched config and variable, for re-solving.
	cfg core.Config
	v   Var
}

// maximizeCases runs every pinned search.
func maximizeCases(t *testing.T) []goldenCase {
	t.Helper()
	vars := []Var{VarBGProb, VarBGBuffer, VarIdleRate, VarModFactor}
	var out []goldenCase
	run := func(name string, cfg core.Config, slo SLO, v Var) {
		c := goldenCase{Case: name, cfg: cfg, v: v}
		res, err := Maximize(cfg, slo, Options{Var: v, Workers: 1})
		if err != nil {
			c.Error = err.Error()
		} else {
			c.Plan = res
		}
		out = append(out, c)
	}
	for _, wl := range []string{"softdev", "email"} {
		for _, util := range []float64{0.2, 0.4} {
			m, err := workload.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			if m, err = workload.AtUtilization(m, util); err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{
				Arrival:     m,
				ServiceRate: workload.ServiceRatePerMs,
				BGProb:      0.3,
				BGBuffer:    5,
				IdleRate:    workload.ServiceRatePerMs,
			}
			base := solveAt(t, cfg, VarBGProb, cfg.BGProb).QLenFG
			for _, scale := range []float64{0.5, 1, 1.5, 3} {
				for _, v := range vars {
					run(fmt.Sprintf("%s@%g qlen=%g*base var=%s", wl, util, scale, v),
						cfg, SLO{QLenFG: scale * base}, v)
				}
			}
		}
	}
	// A foreground load below ModFactorFloor·µ stays stable under the
	// deepest modulation, so the downward φ search reaches its floor.
	cfg := baseConfig(t)
	m, err := cfg.Arrival.WithRate(0.02 * workload.ServiceRatePerMs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arrival = m
	run("email@0.02 qlen=1e6 var=mod", cfg, SLO{QLenFG: 1e6}, VarModFactor)
	if m, err = m.WithRate(1.2 * workload.ServiceRatePerMs); err != nil {
		t.Fatal(err)
	}
	cfg.Arrival = m
	for _, v := range vars {
		run(fmt.Sprintf("email saturated var=%s", v), cfg, SLO{QLenFG: 100}, v)
	}
	return out
}

func TestMaximizeGolden(t *testing.T) {
	got := maximizeCases(t)
	// Every interior frontier must re-solve feasible at Value and
	// infeasible at Bracket, including the "email@0.4 qlen=1*base" cases,
	// where QLenFG's rounding noise exceeds its change per step.
	for _, c := range got {
		if c.Plan == nil || c.Plan.AtCap {
			continue
		}
		opts := Options{Var: c.v}
		if _, ok, err := evalAt(c.cfg, c.Plan.SLO, opts, c.Plan.Value); err != nil || !ok {
			t.Errorf("%s: SLO must hold at Value %v (err %v)", c.Case, c.Plan.Value, err)
		}
		if _, ok, err := evalAt(c.cfg, c.Plan.SLO, opts, c.Plan.Bracket); err != nil || ok {
			t.Errorf("%s: SLO must fail at Bracket %v (err %v)", c.Case, c.Plan.Bracket, err)
		}
	}
	// Each case as the file pins it, indented as an element of the array.
	fresh := make([]json.RawMessage, len(got))
	for i, c := range got {
		b, err := json.MarshalIndent(c, "  ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = b
	}
	raw, err := os.ReadFile(maximizeGoldenPath)
	var pinned []json.RawMessage
	if err == nil {
		err = json.Unmarshal(raw, &pinned)
	}
	if *updateGolden && (err != nil || len(pinned) != len(fresh)) {
		writeGolden(t, fresh)
		return
	}
	if err != nil {
		t.Fatalf("missing or corrupt golden file (run `go test ./internal/plan -run TestMaximizeGolden -update`): %v", err)
	}
	if len(fresh) != len(pinned) {
		t.Fatalf("%d cases, golden has %d", len(fresh), len(pinned))
	}
	moved := 0
	for i := range pinned {
		var want, gotV any
		if err := json.Unmarshal(pinned[i], &want); err != nil {
			t.Fatalf("corrupt golden case %d: %v", i, err)
		}
		if err := json.Unmarshal(fresh[i], &gotV); err != nil {
			t.Fatal(err)
		}
		d := goldenDiff("", want, gotV)
		if d == "" {
			continue
		}
		if *updateGolden {
			t.Logf("re-pinned case %d (%s): %s", i, got[i].Case, d)
			pinned[i] = fresh[i]
			moved++
		} else {
			t.Errorf("case %d (%s) deviates from %s: %s", i, got[i].Case, maximizeGoldenPath, d)
		}
	}
	if moved > 0 {
		writeGolden(t, pinned)
	}
}

// writeGolden writes the cases, each already indented as an array element,
// as the golden file's JSON array.
func writeGolden(t *testing.T, cases []json.RawMessage) {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("[")
	for i, c := range cases {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		b.Write(c)
	}
	b.WriteString("\n]\n")
	if err := os.WriteFile(maximizeGoldenPath, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", maximizeGoldenPath)
}

// goldenDiff structurally compares two unmarshalled JSON values, numbers to
// maximizeGoldenTol relative, and describes the first mismatch ("" if none).
func goldenDiff(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("%s: want %v, got %v", path, want, got)
		}
		for k, wv := range w {
			if d := goldenDiff(path+"."+k, wv, g[k]); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("%s: array shape differs (want %d elements)", path, len(w))
		}
		for i := range w {
			if d := goldenDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); d != "" {
				return d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > maximizeGoldenTol*math.Max(1, math.Abs(w)) {
			return fmt.Sprintf("%s: want %.17g, got %v", path, w, got)
		}
	default:
		if want != got {
			return fmt.Sprintf("%s: want %v, got %v", path, want, got)
		}
	}
	return ""
}
