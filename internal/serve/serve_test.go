package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/workload"
)

// solverSolves counts the analytic solves the server's own diagnostics saw
// complete — the solver-side pin that a cached point never re-invokes the
// QBD solver, independent of the serve counters.
func solverSolves(s *Server) int64 {
	return s.diag.Report().Solves
}

// newTest builds a Server over opts, failing the test on construction
// errors and closing it on cleanup.
func newTest(t testing.TB, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// postJSON posts body to path on h and returns the recorded response.
func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// doGet issues a GET against path on h and returns the recorded response.
func doGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// fig5Body is a Figure 5 parameter point: the E-mail workload at 20%
// foreground load with the paper defaults.
const fig5Body = `{"workload":"email","utilization":0.2,"bgProb":0.3}`

func TestHandleSolveErrors(t *testing.T) {
	cases := []struct {
		name       string
		body       string
		timeout    time.Duration
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
			body:       `{"workload":"email","bogus":1}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "body",
		},
		{
			name:       "unknown workload",
			body:       `{"workload":"nfs","bgProb":0.3}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "workload",
		},
		{
			name:       "BG probability out of range",
			body:       `{"workload":"email","utilization":0.2,"bgProb":1.5}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "BGProb",
		},
		{
			name:       "negative buffer",
			body:       `{"workload":"email","utilization":0.2,"bgProb":0.3,"bgBuffer":-1}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "BGBuffer",
		},
		{
			name:       "bad policy",
			body:       `{"workload":"email","utilization":0.2,"bgProb":0.3,"policy":"sometimes"}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "IdlePolicy",
		},
		{
			name:       "utilization out of range",
			body:       `{"workload":"email","utilization":-0.2,"bgProb":0.3}`,
			wantStatus: http.StatusBadRequest,
			wantField:  "utilization",
		},
		{
			name: "unstable model",
			// Overload: arrivals at 105% of the service rate leave the QBD
			// with non-negative drift — no stationary distribution exists.
			body:       `{"workload":"email","utilization":1.05,"bgProb":0.3}`,
			wantStatus: http.StatusUnprocessableEntity,
			wantInMsg:  "not positive recurrent",
		},
		{
			name:       "deadline exceeded",
			body:       fig5Body,
			timeout:    time.Nanosecond,
			wantStatus: http.StatusGatewayTimeout,
			wantInMsg:  "deadline",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTest(t, Options{RequestTimeout: tc.timeout})
			if tc.name == "deadline exceeded" {
				// Hold the solve until the 1 ns request deadline has long
				// expired, so the ctx check inside the leader path fires
				// deterministically.
				s.solveBarrier = func() { time.Sleep(5 * time.Millisecond) }
			}
			rec := postJSON(t, s.Handler(), "/v1/solve", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", rec.Code, tc.wantStatus, rec.Body)
			}
			var res PointResult
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

func TestSolveMethodNotAllowed(t *testing.T) {
	s := newTest(t, Options{})
	for _, path := range []string{"/v1/solve", "/v1/sweep"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, rec.Code)
		}
	}
}

// TestSolveCacheSkipsSolver pins the tentpole cache contract: the second
// identical request is answered from the cache without invoking the QBD
// solver, observed through both the serve counters and the solver's own
// diagnostics.
func TestSolveCacheSkipsSolver(t *testing.T) {
	s := newTest(t, Options{})

	first := postJSON(t, s.Handler(), "/v1/solve", fig5Body)
	if first.Code != http.StatusOK {
		t.Fatalf("first solve: %d %s", first.Code, first.Body)
	}
	var r1 PointResult
	json.Unmarshal(first.Body.Bytes(), &r1)
	if r1.Cached || r1.Metrics == nil || r1.Key == "" {
		t.Fatalf("first response should be an uncached solve with a key: %s", first.Body)
	}
	if solverSolves(s) != 1 {
		t.Fatalf("first request: %d solver invocations, want 1", solverSolves(s))
	}

	second := postJSON(t, s.Handler(), "/v1/solve", fig5Body)
	if second.Code != http.StatusOK {
		t.Fatalf("second solve: %d %s", second.Code, second.Body)
	}
	var r2 PointResult
	json.Unmarshal(second.Body.Bytes(), &r2)
	if !r2.Cached {
		t.Fatalf("second identical request not served from cache: %s", second.Body)
	}
	if solverSolves(s) != 1 {
		t.Fatalf("cached request re-invoked the solver: %d solves", solverSolves(s))
	}
	if r2.Key != r1.Key {
		t.Fatalf("cache key drifted between identical requests: %s vs %s", r1.Key, r2.Key)
	}
	b1, _ := json.Marshal(r1.Metrics)
	b2, _ := json.Marshal(r2.Metrics)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached metrics differ from solved metrics:\n%s\n%s", b1, b2)
	}
	st := s.Stats()
	if st.Solves != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("serve counters: %+v, want 1 solve / 1 hit / 1 miss", st)
	}
}

// TestSolveMatchesBatchCLI pins the serving/batch parity acceptance
// criterion: the daemon's metrics object for a Figure 5 point is
// byte-identical to marshaling the metrics the analytic engine returns
// directly — the same numbers `bgperf solve -json` prints.
func TestSolveMatchesBatchCLI(t *testing.T) {
	m, err := workload.Email()
	if err != nil {
		t.Fatal(err)
	}
	if m, err = workload.AtUtilization(m, 0.2); err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(core.Config{
		Arrival:     m,
		ServiceRate: workload.ServiceRatePerMs,
		BGProb:      0.3,
		BGBuffer:    5,
		IdleRate:    1 / workload.MeanServiceTimeMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(sol.Metrics)
	if err != nil {
		t.Fatal(err)
	}

	s := newTest(t, Options{})
	rec := postJSON(t, s.Handler(), "/v1/solve", fig5Body)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", rec.Code, rec.Body)
	}
	var res struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, res.Metrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), want) {
		t.Fatalf("daemon metrics differ from direct solve:\ndaemon %s\ndirect %s", compact.Bytes(), want)
	}
}

// TestConcurrentIdenticalRequestsCoalesce pins the coalescing contract
// under the race detector: M concurrent identical requests perform exactly
// one solve, every response carries the same metrics, and the other M−1
// requests are accounted as coalesced or cache hits.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	const m = 16
	s := newTest(t, Options{})
	release := make(chan struct{})
	s.solveBarrier = func() { <-release }

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	bodies := make([][]byte, m)
	codes := make([]int, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(fig5Body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Hold the one in-flight solve until the other M−1 requests are parked
	// on its call, so every request provably shares the single
	// solve rather than being answered by a completed cache entry.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if s.cache.waiters.Load() == m-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never parked: %+v (waiters %d)", s.Stats(), s.cache.waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var wantMetrics json.RawMessage
	for i := 0; i < m; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, codes[i], bodies[i])
		}
		var res struct {
			Metrics json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(bodies[i], &res); err != nil {
			t.Fatal(err)
		}
		if wantMetrics == nil {
			wantMetrics = res.Metrics
		} else if !bytes.Equal(wantMetrics, res.Metrics) {
			t.Fatalf("request %d returned different metrics", i)
		}
	}
	if got := solverSolves(s); got != 1 {
		t.Fatalf("observed %d solver invocations for %d identical requests, want exactly 1", got, m)
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Fatalf("serve counter says %d solves, want 1 (%+v)", st.Solves, st)
	}
	if st.Coalesced != m-1 || st.CacheHits != 0 {
		t.Fatalf("coalesced = %d (want %d), cache hits = %d (want 0): %+v", st.Coalesced, m-1, st.CacheHits, st)
	}
}

func TestSweep(t *testing.T) {
	s := newTest(t, Options{})
	body := `{"points":[
		{"workload":"email","utilization":0.2,"bgProb":0.3},
		{"workload":"email","utilization":0.2,"bgProb":0.6},
		{"workload":"nfs","bgProb":0.3},
		{"workload":"email","utilization":0.2,"bgProb":0.3}
	]}`
	rec := postJSON(t, s.Handler(), "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	var res SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("want 4 index-aligned results, got %d", len(res.Results))
	}
	for _, i := range []int{0, 1, 3} {
		if res.Results[i].Metrics == nil || res.Results[i].Error != nil {
			t.Fatalf("point %d should have solved: %+v", i, res.Results[i])
		}
	}
	if res.Results[2].Error == nil || res.Results[2].Error.Code != http.StatusBadRequest || res.Results[2].Error.Field != "workload" {
		t.Fatalf("point 2 should fail validation with field=workload: %+v", res.Results[2].Error)
	}
	// Points 0 and 3 are identical: they share one solve via cache or
	// coalescing, so only the two distinct valid points hit the solver.
	if got := solverSolves(s); got != 2 {
		t.Fatalf("sweep performed %d solves, want 2 (duplicate point must not re-solve)", got)
	}
	b0, _ := json.Marshal(res.Results[0].Metrics)
	b3, _ := json.Marshal(res.Results[3].Metrics)
	if !bytes.Equal(b0, b3) {
		t.Fatalf("identical points returned different metrics")
	}
}

func TestSweepValidation(t *testing.T) {
	s := newTest(t, Options{})
	cases := []struct {
		name, body string
		wantField  string
	}{
		{"empty points", `{"points":[]}`, "points"},
		{"malformed", `{"points":`, "body"},
		{"too many points", fmt.Sprintf(`{"points":[%s]}`, strings.Repeat(fig5Body+",", maxSweepPoints)+fig5Body), "points"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, s.Handler(), "/v1/sweep", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", rec.Code)
			}
			var res PointResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if res.Error == nil {
				t.Fatalf("want error envelope, got %s", rec.Body)
			}
			if res.Error.Field != tc.wantField {
				t.Fatalf("field = %q, want %q", res.Error.Field, tc.wantField)
			}
		})
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s := newTest(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}

	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", rec.Code)
	}
	solve := postJSON(t, s.Handler(), "/v1/solve", fig5Body)
	if solve.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining solve = %d, want 503", solve.Code)
	}
	sweep := postJSON(t, s.Handler(), "/v1/sweep", `{"points":[`+fig5Body+`]}`)
	if sweep.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep = %d, want 503", sweep.Code)
	}
	if st := s.Stats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTest(t, Options{})
	postJSON(t, s.Handler(), "/v1/solve", fig5Body)
	postJSON(t, s.Handler(), "/v1/solve", fig5Body)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	var snap struct {
		Serve obs.ServeStats `json:"serve"`
		Diag  obs.Report     `json:"diag"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body)
	}
	if snap.Serve.Requests != 2 || snap.Serve.Solves != 1 || snap.Serve.CacheHits != 1 {
		t.Fatalf("serve section: %+v", snap.Serve)
	}
	if snap.Serve.LatencySamples != 1 || snap.Serve.LatencyP50Ms <= 0 {
		t.Fatalf("latency section not populated: %+v", snap.Serve)
	}
	if snap.Diag.Solves != 1 || snap.Diag.RSolves != 1 {
		t.Fatalf("diag section should show the one solve: %+v", snap.Diag)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "bgperf.serve.cache_hits") {
		t.Fatalf("debug/vars missing serve counters: %d", rec.Code)
	}
}
