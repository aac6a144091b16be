package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"bgperf/internal/core"
	"bgperf/internal/plan"
)

// fillDistinct sets every field of the struct v, nested structs included,
// to a distinct non-zero value drawn from *n.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	for i := range v.NumField() {
		f := v.Field(i)
		*n++
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, n)
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", *n))
		case reflect.Float64:
			f.SetFloat(float64(*n) + 0.5)
		case reflect.Int:
			f.SetInt(int64(*n))
		case reflect.Pointer:
			p := reflect.New(f.Type().Elem())
			p.Elem().SetInt(int64(*n))
			f.Set(p)
		default:
			t.Fatalf("%s.%s: no distinct value for kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestPlanTraceQueryRoundTrip sets every OptimizeRequest field but
// "workload" (the trace replaces it) to a distinct value, encodes the
// request as a /v1/plan-from-trace query string by its JSON names (the
// SLO's bounds under their own names), and requires the decoded request to
// equal it, so every field added to the request is reachable from the query
// string with no list to edit.
func TestPlanTraceQueryRoundTrip(t *testing.T) {
	var want OptimizeRequest
	n := 0
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &n)
	want.Workload = ""
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var fields map[string]any
	if err := dec.Decode(&fields); err != nil {
		t.Fatal(err)
	}
	slo, ok := fields["slo"].(map[string]any)
	if !ok {
		t.Fatalf("no slo object in %s", body)
	}
	delete(fields, "slo")
	delete(fields, "workload")
	maps.Copy(fields, slo)
	q := url.Values{}
	for name, v := range fields {
		q.Set(name, fmt.Sprint(v))
	}
	got, err := planTraceQuery(q)
	if err != nil {
		t.Fatalf("query %s: %v", q.Encode(), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query %s decoded to\n%+v\nwant\n%+v", q.Encode(), got, want)
	}
}

// TestTwoClassSolve checks a request with a second background class: it
// resolves to the config a direct core solve gets (bg2Buffer defaulting to
// 5), answers with the class-2 metrics, and reproduces the two-class digits
// `bgperf solve -p2` pins.
func TestTwoClassSolve(t *testing.T) {
	req := SolveRequest{Workload: "softdev", Utilization: 0.2, BGProb: 0.3, BG2Prob: 0.3}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BG2Prob != 0.3 || cfg.BG2Buffer != 5 {
		t.Fatalf("class 2 resolved to p2 %g, buffer %d; want 0.3, 5", cfg.BG2Prob, cfg.BG2Buffer)
	}
	s := newTest(t, Options{})
	rec := postJSON(t, s.Handler(), "/v1/solve",
		`{"workload":"softdev","utilization":0.2,"bgProb":0.3,"bg2Prob":0.3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", rec.Code, rec.Body)
	}
	var res struct {
		Metrics core.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.BG2 == nil {
		t.Fatalf("no class-2 metrics in %s", rec.Body)
	}
	got := fmt.Sprintf("%.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g",
		m.QLenFG, m.WaitPFG, m.CompBG, m.BG2.Comp, m.QLenBG, m.BG2.QLen, m.ThroughputBG, m.BG2.Throughput)
	const want = "0.618874 0.184415 0.747191 0.259953 0.777505 1.38767 0.00747191 0.00259953"
	if got != want {
		t.Fatalf("two-class metrics %s, want %s", got, want)
	}
}

// TestSingleClassKeyIgnoresBG2Buffer checks that the class-2 fields leave
// every single-class request's config, and so its cache key, as it was:
// bg2Buffer counts only alongside a nonzero bg2Prob.
func TestSingleClassKeyIgnoresBG2Buffer(t *testing.T) {
	three := 3
	key := func(r SolveRequest) string {
		t.Helper()
		cfg, err := r.Config()
		if err != nil {
			t.Fatal(err)
		}
		k, err := core.CacheKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := SolveRequest{Workload: "email", Utilization: 0.2, BGProb: 0.3}
	withBuffer := base
	withBuffer.BG2Buffer = &three
	if key(base) != key(withBuffer) {
		t.Fatal("bg2Buffer without bg2Prob changed a single-class key")
	}
	twoClass := withBuffer
	twoClass.BG2Prob = 0.2
	if key(twoClass) == key(base) {
		t.Fatal("a second class did not change the key")
	}
}

// TestTwoClassPlans pins, for each decision variable, the outcome of a plan
// whose base model carries a second background class: every variable
// answers. The p search tops out at 1 − bg2Prob, where p + p2 = 1, rather
// than failing validation at p = 1.
func TestTwoClassPlans(t *testing.T) {
	s := newTest(t, Options{})
	// A one-slot class-2 buffer keeps the X = 64 solves cheap.
	one := 1
	search := func(v string, qlen float64) *plan.Result {
		t.Helper()
		body := fmt.Sprintf(`{"workload":"softdev","utilization":0.3,"bgProb":0.3,"bg2Prob":0.3,"bg2Buffer":%d,`+
			`"slo":{"qlenFG":%g},"var":%q}`, one, qlen, v)
		rec := postJSON(t, s.Handler(), "/v1/optimize", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("var %s: %d %s", v, rec.Code, rec.Body)
		}
		var res PlanPointResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Plan == nil || res.Plan.Metrics.BG2 == nil {
			t.Fatalf("var %s: no two-class plan in %s", v, rec.Body)
		}
		return res.Plan
	}
	// A loose bound holds at every p, so the plan stops at the top of p's
	// domain; every neighbour stays inside it.
	if p := search("p", 6); !p.AtCap || p.Value != 0.7 {
		t.Errorf("p: value %g, atCap %v; want the cap 0.7", p.Value, p.AtCap)
	} else {
		for _, nb := range p.Neighborhood {
			if nb.Value > 0.7 {
				t.Errorf("p: neighbour %g outside [0, 0.7]", nb.Value)
			}
		}
	}
	// A bound set at p = 0.35's queue length puts the frontier there.
	at035 := SolveRequest{Workload: "softdev", Utilization: 0.3, BGProb: 0.35, BG2Prob: 0.3, BG2Buffer: &one}
	cfg, err := at035.Config()
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if p := search("p", sol.QLenFG); p.AtCap || math.Abs(p.Value-0.35) > 2*plan.DefaultTol {
		t.Errorf("p: value %g, atCap %v; want the frontier 0.35", p.Value, p.AtCap)
	}
	if x := search("x", 6); !x.AtCap || x.Value != plan.MaxBuffer {
		t.Errorf("x: value %g, atCap %v; want the cap %d", x.Value, x.AtCap, plan.MaxBuffer)
	}
	if a := search("alpha", 4.25); a.AtCap || a.Bracket <= a.Value {
		t.Errorf("alpha: want a frontier below its bracket, got value %g bracket %g", a.Value, a.Bracket)
	}
	if m := search("mod", 6); m.AtCap || !(m.Value > 0 && m.Value < 1) {
		t.Errorf("mod: want a frontier in (0, 1), got value %g atCap %v", m.Value, m.AtCap)
	}
}
