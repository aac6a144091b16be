package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bgperf/internal/core"
	"bgperf/internal/plan"
	"bgperf/internal/trace"
	"bgperf/internal/workload"
)

// planBody builds a /v1/optimize body for the Figure 5 base point with the
// given SLO and variable.
func planBody(t *testing.T, slo plan.SLO, v string) string {
	t.Helper()
	req := OptimizeRequest{
		SolveRequest: SolveRequest{Workload: "email", Utilization: 0.2, BGProb: 0.3},
		SLO:          slo,
		Var:          v,
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fig5SLO computes a satisfiable-but-binding SLO for the Figure 5 base
// point: the foreground queue length at p = 0.5, so the frontier lands near
// 0.5 regardless of the workload's absolute scale.
func fig5SLO(t *testing.T) plan.SLO {
	t.Helper()
	req := SolveRequest{Workload: "email", Utilization: 0.2, BGProb: 0.5}
	cfg, err := req.Config()
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
	return plan.SLO{QLenFG: sol.Metrics.QLenFG}
}

// TestOptimizePlanCacheSkipsPlanner pins the plan-cache contract: the
// second identical optimize request is answered from the plan cache without
// re-running the inverse search.
func TestOptimizePlanCacheSkipsPlanner(t *testing.T) {
	s := newTest(t, Options{})
	body := planBody(t, fig5SLO(t), "p")

	first := postJSON(t, s.Handler(), "/v1/optimize", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first optimize: %d %s", first.Code, first.Body)
	}
	var r1 PlanPointResult
	json.Unmarshal(first.Body.Bytes(), &r1)
	if r1.Cached || r1.Plan == nil || r1.Key == "" {
		t.Fatalf("first response should be an uncached plan with a key: %s", first.Body)
	}
	if r1.Plan.Var != "p" || r1.Plan.Value <= 0 || r1.Plan.Value > 1 {
		t.Fatalf("implausible frontier: %+v", r1.Plan)
	}

	second := postJSON(t, s.Handler(), "/v1/optimize", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second optimize: %d %s", second.Code, second.Body)
	}
	var r2 PlanPointResult
	json.Unmarshal(second.Body.Bytes(), &r2)
	if !r2.Cached || r2.Key != r1.Key {
		t.Fatalf("second identical request not served from the plan cache: %s", second.Body)
	}
	b1, _ := json.Marshal(r1.Plan)
	b2, _ := json.Marshal(r2.Plan)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached plan differs from computed plan:\n%s\n%s", b1, b2)
	}
	st := s.Stats()
	if st.Plans != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("serve counters: %+v, want 1 plan / 1 hit / 1 miss", st)
	}
	if st.Solves != 0 {
		t.Fatalf("plan internal solves leaked into the request-level Solves counter: %+v", st)
	}
}

// TestOptimizeMatchesDirectPlan pins the CLI/daemon parity acceptance
// criterion: the daemon's "plan" object is byte-identical to marshaling the
// result of the same plan.Maximize call — the same JSON `bgperf plan -json`
// prints.
func TestOptimizeMatchesDirectPlan(t *testing.T) {
	slo := fig5SLO(t)
	req := SolveRequest{Workload: "email", Utilization: 0.2, BGProb: 0.3}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := plan.Maximize(cfg, slo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	s := newTest(t, Options{})
	rec := postJSON(t, s.Handler(), "/v1/optimize", planBody(t, slo, "p"))
	if rec.Code != http.StatusOK {
		t.Fatalf("optimize: %d %s", rec.Code, rec.Body)
	}
	var res struct {
		Plan json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, res.Plan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), want) {
		t.Fatalf("daemon plan differs from direct plan:\ndaemon %s\ndirect %s", compact.Bytes(), want)
	}
}

func TestOptimizeErrors(t *testing.T) {
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantField  string
		wantInMsg  string
	}{
		{
			name:       "malformed JSON",
			body:       `{"workload":`,
			wantStatus: http.StatusBadRequest,
			wantField:  "body",
		},
		{
			name:       "unknown request field",
			body:       `{"workload":"email","slo":{"qlenFG":1},"bogus":1}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "body",
		},
		{
			name:       "no SLO bound",
			body:       `{"workload":"email","utilization":0.2}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "SLO",
		},
		{
			name:       "unknown variable",
			body:       `{"workload":"email","utilization":0.2,"slo":{"qlenFG":10},"var":"q"}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "var",
		},
		{
			name:       "negative tolerance",
			body:       `{"workload":"email","utilization":0.2,"slo":{"qlenFG":10},"tolerance":-1}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "tolerance",
		},
		{
			// At 1e-19 bisection needs 64 steps over p's span but 67 over
			// α's wider one, past plan.MaxSteps.
			name:       "tolerance too fine for alpha",
			body:       `{"workload":"email","utilization":0.2,"slo":{"qlenFG":10},"var":"alpha","tolerance":1e-19}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "tolerance",
			wantInMsg:  "more than 64",
		},
		{
			name:       "removed maxIter field",
			body:       `{"workload":"email","utilization":0.2,"slo":{"qlenFG":10},"maxIter":64}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "body",
		},
		{
			name: "infeasible SLO",
			// The Email workload's queue length at 20% load is far above 1e-6
			// even with background work disabled.
			body:       `{"workload":"email","utilization":0.2,"slo":{"qlenFG":1e-6}}`,
			wantStatus: http.StatusUnprocessableEntity,
			wantInMsg:  "infeasible",
		},
		{
			name:       "unstable foreground load",
			body:       `{"workload":"email","utilization":1.05,"slo":{"qlenFG":10}}`,
			wantStatus: http.StatusUnprocessableEntity,
			wantInMsg:  "saturates",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTest(t, Options{})
			rec := postJSON(t, s.Handler(), "/v1/optimize", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", rec.Code, tc.wantStatus, rec.Body)
			}
			var res PlanPointResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("response not JSON: %v", err)
			}
			if res.Error == nil {
				t.Fatalf("want error body, got %s", rec.Body)
			}
			if res.Error.Code != tc.wantStatus {
				t.Errorf("error.code = %d, want %d", res.Error.Code, tc.wantStatus)
			}
			if tc.wantField != "" && res.Error.Field != tc.wantField {
				t.Errorf("error.field = %q, want %q (message %q)", res.Error.Field, tc.wantField, res.Error.Message)
			}
			if tc.wantInMsg != "" && !strings.Contains(res.Error.Message, tc.wantInMsg) {
				t.Errorf("error.message %q does not mention %q", res.Error.Message, tc.wantInMsg)
			}
		})
	}
}

// emailNDJSON samples an NDJSON trace from the Email workload, long enough
// for the MMPP(2) fit.
func emailNDJSON(t *testing.T, n int) string {
	t.Helper()
	m, err := workload.Email()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(m, n, 1)
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPlanFromTrace(t *testing.T) {
	s := newTest(t, Options{})
	body := emailNDJSON(t, 2000)
	// A huge queue-length bound is satisfiable at any p, so the plan
	// deterministically reports the domain cap.
	path := "/v1/plan-from-trace?qlenFG=1e9&utilization=0.3&var=p"
	rec := postJSON(t, s.Handler(), path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan-from-trace: %d %s", rec.Code, rec.Body)
	}
	var res PlanPointResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Error != nil {
		t.Fatalf("want a plan, got %s", rec.Body)
	}
	if !res.Plan.AtCap || res.Plan.Value != 1 {
		t.Fatalf("loose SLO should cap at p = 1: %+v", res.Plan)
	}
	if res.Fit == nil || res.Fit.Samples != 2000 || res.Fit.Rate <= 0 {
		t.Fatalf("fit summary missing or implausible: %+v", res.Fit)
	}

	// The identical upload plans to the identical cache key: second request
	// is a plan-cache hit (the fit re-runs, the search does not).
	rec = postJSON(t, s.Handler(), path, body)
	var res2 PlanPointResult
	json.Unmarshal(rec.Body.Bytes(), &res2)
	if !res2.Cached || res2.Key != res.Key {
		t.Fatalf("identical trace upload missed the plan cache: %s", rec.Body)
	}
	if st := s.Stats(); st.Plans != 1 {
		t.Fatalf("plans = %d, want 1", st.Plans)
	}
}

// TestPlanFromTraceScenarioParams pins the PR 10 query-parameter surface:
// the scenario fields (modFactor, bgAdmit, fgThreshold, deadlineRate) and
// var=mod must be accepted on /v1/plan-from-trace — previously they would
// have been rejected as unknown parameters.
func TestPlanFromTraceScenarioParams(t *testing.T) {
	s := newTest(t, Options{})
	body := emailNDJSON(t, 2000)
	path := "/v1/plan-from-trace?qlenFG=1e9&utilization=0.3&var=mod" +
		"&bgAdmit=deadline&deadlineRate=0.4"
	rec := postJSON(t, s.Handler(), path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan-from-trace with scenario params: %d %s", rec.Code, rec.Body)
	}
	var res PlanPointResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Error != nil {
		t.Fatalf("want a plan, got %s", rec.Body)
	}
	// The loose SLO makes every stable φ feasible, so the downward search
	// lands at the stability boundary (or the domain floor): a genuine
	// fraction of 1, never above it.
	if res.Plan.Value <= 0 || res.Plan.Value > 1 {
		t.Fatalf("mod frontier out of (0, 1]: %+v", res.Plan)
	}
	if res.Plan.Var != "mod" {
		t.Fatalf("plan var = %q, want mod", res.Plan.Var)
	}
}

// TestPlanFromTraceTwoClass checks the class-2 query parameters reach the
// planned model: bg2Prob adds the second class and caps p's domain at
// 1 − bg2Prob, and bg2Buffer sets that class's buffer.
func TestPlanFromTraceTwoClass(t *testing.T) {
	s := newTest(t, Options{})
	rec := postJSON(t, s.Handler(),
		"/v1/plan-from-trace?qlenFG=1e9&utilization=0.3&var=p&bg2Prob=0.25&bg2Buffer=0", emailNDJSON(t, 2000))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan-from-trace: %d %s", rec.Code, rec.Body)
	}
	var res PlanPointResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || !res.Plan.AtCap || res.Plan.Value != 0.75 {
		t.Fatalf("loose SLO should cap at p = 0.75: %s", rec.Body)
	}
	// A class-2 buffer of 0 drops every class-2 job.
	if bg2 := res.Plan.Metrics.BG2; bg2 == nil || bg2.Comp != 0 || bg2.QLen != 0 {
		t.Fatalf("class-2 metrics %+v, want a class dropping all its work", bg2)
	}
}

func TestPlanFromTraceErrors(t *testing.T) {
	s := newTest(t, Options{})
	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantInMsg  string
		wantField  string
	}{
		{
			name:       "malformed trace",
			path:       "/v1/plan-from-trace?qlenFG=10",
			body:       "not ndjson\n",
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "malformed trace",
		},
		{
			name:       "trace too short to fit",
			path:       "/v1/plan-from-trace?qlenFG=10",
			body:       emailNDJSON(t, 100),
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "samples",
		},
		{
			name:       "unknown query parameter",
			path:       "/v1/plan-from-trace?qlenFG=10&bogus=1",
			body:       emailNDJSON(t, 2000),
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "unknown query parameter",
			wantField:  "bogus",
		},
		{
			name:       "removed maxIter parameter",
			path:       "/v1/plan-from-trace?qlenFG=10&maxIter=64",
			body:       emailNDJSON(t, 2000),
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "unknown query parameter",
			wantField:  "maxIter",
		},
		{
			name:       "bad numeric parameter",
			path:       "/v1/plan-from-trace?qlenFG=ten",
			body:       emailNDJSON(t, 2000),
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "bad numeric parameter",
			wantField:  "qlenFG",
		},
		{
			name:       "non-integer buffer",
			path:       "/v1/plan-from-trace?qlenFG=10&bgBuffer=2.5",
			body:       emailNDJSON(t, 2000),
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "bad integer parameter",
			wantField:  "bgBuffer",
		},
		{
			name:       "workload replaced by the trace",
			path:       "/v1/plan-from-trace?qlenFG=10&workload=email",
			body:       emailNDJSON(t, 2000),
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "unknown query parameter",
			wantField:  "workload",
		},
		{
			name:       "slo object name",
			path:       "/v1/plan-from-trace?qlenFG=10&slo=1",
			body:       emailNDJSON(t, 2000),
			wantStatus: http.StatusBadRequest,
			wantInMsg:  "unknown query parameter",
			wantField:  "slo",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, s.Handler(), tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", rec.Code, tc.wantStatus, rec.Body)
			}
			var res PlanPointResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if res.Error == nil || !strings.Contains(res.Error.Message, tc.wantInMsg) {
				t.Fatalf("error %+v does not mention %q", res.Error, tc.wantInMsg)
			}
			if res.Error.Field != tc.wantField {
				t.Errorf("error field = %q, want %q", res.Error.Field, tc.wantField)
			}
		})
	}
}

// TestPlanEndpointsDrainAndMethod pins that the new endpoints share the
// serving stack's draining gate and method check.
func TestPlanEndpointsDrainAndMethod(t *testing.T) {
	s := newTest(t, Options{})
	for _, path := range []string{"/v1/optimize", "/v1/plan-from-trace"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, rec.Code)
		}
	}
	s.StartDrain()
	for _, path := range []string{"/v1/optimize", "/v1/plan-from-trace"} {
		rec := postJSON(t, s.Handler(), path, "{}")
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("draining POST %s = %d, want 503", path, rec.Code)
		}
	}
	if st := s.Stats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}
}

// TestOptimizeCacheKeyNormalizesBaseVariable pins that two optimize
// requests differing only in the base value of the searched variable share
// one plan cache entry — the search overrides that value anyway.
func TestOptimizeCacheKeyNormalizesBaseVariable(t *testing.T) {
	s := newTest(t, Options{})
	slo := fig5SLO(t)
	sloJSON, _ := json.Marshal(slo)
	b1 := fmt.Sprintf(`{"workload":"email","utilization":0.2,"bgProb":0.1,"slo":%s}`, sloJSON)
	b2 := fmt.Sprintf(`{"workload":"email","utilization":0.2,"bgProb":0.9,"slo":%s}`, sloJSON)

	r1 := postJSON(t, s.Handler(), "/v1/optimize", b1)
	r2 := postJSON(t, s.Handler(), "/v1/optimize", b2)
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("optimize: %d / %d", r1.Code, r2.Code)
	}
	var p1, p2 PlanPointResult
	json.Unmarshal(r1.Body.Bytes(), &p1)
	json.Unmarshal(r2.Body.Bytes(), &p2)
	if p1.Key != p2.Key {
		t.Fatalf("base-p value fragmented the plan cache: %s vs %s", p1.Key, p2.Key)
	}
	if !p2.Cached {
		t.Fatal("second request should hit the plan cache despite a different base p")
	}
}
