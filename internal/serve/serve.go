// Package serve implements the HTTP serving layer of the bgperfd daemon: a
// long-running solver-as-a-service front-end over the analytic engine.
//
// The serving stack puts two mechanisms in front of core.Model.Solve:
//
//   - one keyed table of results (memo), keyed by the canonical
//     configuration hash (core.CacheKey), whose entries are either finished
//     or in flight — finished entries form an LRU solve cache (bounded
//     entry count and byte budget), so identical parameter points are
//     answered without touching the QBD solver, and an in-flight entry
//     makes N concurrent requests for the same uncached point cost exactly
//     one solve, every request sharing the one call's result;
//   - per-request deadlines and graceful draining — requests carry a
//     context deadline (504 on expiry), and a draining server answers new
//     work with 503 while in-flight solves complete.
//
// Two more layers turn the single process into a deployable tier (both are
// opt-in; see docs/OPERATIONS.md):
//
//   - a persistent disk cache (internal/cas) under the LRU — on a memory
//     miss the daemon consults a content-addressed on-disk store keyed by
//     the same CacheKey, so every point ever solved survives restarts and
//     a re-warmed sweep re-solves nothing;
//   - cluster mode (internal/cluster) — a static peer list is consistent-
//     hashed over the key space, each point is forwarded to its owning
//     peer (which holds that shard's memory and disk cache), and a point
//     whose owner gives no answer is solved locally instead of failing.
//
// /v1/sweep additionally streams: a request with Accept:
// application/x-ndjson receives one PointResult per line, in request
// order, each written as its point finishes solving — a 10k-point grid
// starts arriving after the first solve instead of after the last. An
// admission gate (Options.MaxInFlight) bounds concurrent request work and
// sheds the overflow with 503 + Retry-After.
//
// The same stack serves the inverse solver: POST /v1/optimize answers
// capacity plans (max sustainable background probability, buffer, or idle
// rate under a foreground SLO) through a second keyed table of plans keyed
// by plan.CacheKey, and POST /v1/plan-from-trace runs the
// paper's complete workflow — upload an NDJSON trace, fit an MMPP(2),
// project the capacity plan — in one request.
//
// Endpoints: POST /v1/solve (one parameter point), POST /v1/sweep (a batch
// fanned out over the internal/par worker pool), POST /v1/optimize (one
// capacity plan), POST /v1/plan-from-trace (trace upload → fit → plan),
// GET /healthz, GET /metrics (JSON snapshot: serve-layer counters plus the
// solver diagnostics report), and GET /debug/vars (the process-wide expvar
// mirrors). Everything is instrumented through internal/obs: cache hits and
// misses, coalesced requests, in-flight solves and plans, and p50/p99 solve
// latency.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
	"unsafe"

	"bgperf/internal/cas"
	"bgperf/internal/cluster"
	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/par"
	"bgperf/internal/plan"
	"bgperf/internal/qbd"
	"bgperf/internal/trace"
	"bgperf/internal/workload"
)

// Serving defaults, overridable through Options (and the bgperfd flags).
const (
	// DefaultCacheEntries bounds the solve cache to this many entries.
	DefaultCacheEntries = 4096
	// DefaultCacheBytes bounds the solve cache to this approximate size.
	DefaultCacheBytes = 64 << 20
	// DefaultRequestTimeout is the per-request solve deadline.
	DefaultRequestTimeout = 30 * time.Second
	// maxSweepPoints bounds one sweep request, as backpressure against a
	// single caller monopolizing the pool.
	maxSweepPoints = 4096
	// maxBodyBytes bounds request bodies read from the wire.
	maxBodyBytes = 8 << 20
)

// Options configures a Server. The zero value takes every default.
type Options struct {
	// CacheEntries bounds the solve cache entry count; 0 means
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// CacheBytes bounds the solve cache byte budget; 0 means
	// DefaultCacheBytes, negative removes the byte bound.
	CacheBytes int64
	// RequestTimeout is the per-request deadline; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Workers bounds the sweep fan-out pool; <= 0 means one per core.
	Workers int
	// CacheDir enables the persistent disk cache tier: solved metrics are
	// written to a content-addressed store rooted here and consulted on
	// every memory miss. Empty disables the disk tier.
	CacheDir string
	// DiskCacheBytes bounds the disk tier's size; 0 means
	// cas.DefaultMaxBytes, negative removes the bound. Ignored without
	// CacheDir.
	DiskCacheBytes int64
	// MaxInFlight enables admission control: at most this many requests
	// are served concurrently, MaxQueue more wait, and the rest are shed
	// with 503 + Retry-After. <= 0 disables the gate.
	MaxInFlight int
	// MaxQueue bounds the admission-gate wait queue; 0 means
	// DefaultMaxQueue × MaxInFlight.
	MaxQueue int
	// Self is this daemon's advertised host:port for cluster mode; it must
	// appear in Peers. Ignored without Peers.
	Self string
	// Peers enables cluster mode: the static membership (host:port,
	// including Self) whose consistent-hash ring shards the key space.
	// Empty means single-node operation.
	Peers []string
	// HealthInterval is the cluster health-probe period; 0 means
	// cluster.DefaultHealthInterval, negative disables background probes
	// (tests drive health checks directly).
	HealthInterval time.Duration
}

// Server is the bgperfd HTTP service: handlers plus the keyed tables of
// solved points and plans, and the serve-layer statistics. Create it with
// New and mount Handler on an http.Server.
type Server struct {
	cache    *memo[core.Metrics]
	plans    *memo[*plan.Result]
	disk     *cas.Store
	cl       *cluster.Cluster
	gate     *gate
	stats    *obs.ServeCollector
	diag     *obs.Diagnostics
	workers  int
	timeout  time.Duration
	draining atomic.Bool
	mux      *http.ServeMux

	// solveBarrier, when set by tests, runs inside the call that solves a
	// point or plan — before the solver — so tests can hold the call in
	// flight while other requests for the same key wait on it.
	solveBarrier func()
}

// New returns a ready-to-mount Server over the given options: it opens
// (and scan-repairs) the disk cache when CacheDir is set, and builds the
// cluster membership when Peers is non-empty. Pair it with Close.
func New(opts Options) (*Server, error) {
	entries := opts.CacheEntries
	switch {
	case entries == 0:
		entries = DefaultCacheEntries
	case entries < 0:
		entries = 0 // disabled
	}
	bytes := opts.CacheBytes
	switch {
	case bytes == 0:
		bytes = DefaultCacheBytes
	case bytes < 0:
		bytes = 0 // unbounded
	}
	timeout := opts.RequestTimeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	s := &Server{
		cache:   newMemo[core.Metrics](entries, bytes, nil),
		plans:   newMemo[*plan.Result](entries, bytes, planResultSize),
		stats:   obs.NewServeCollector(),
		diag:    obs.NewDiagnostics(),
		workers: opts.Workers,
		timeout: timeout,
		mux:     http.NewServeMux(),
	}
	s.gate = newGate(opts.MaxInFlight, opts.MaxQueue, s.stats)
	if opts.CacheDir != "" {
		disk, err := cas.Open(opts.CacheDir, cas.Options{MaxBytes: opts.DiskCacheBytes})
		if err != nil {
			return nil, err
		}
		s.disk = disk
	}
	if len(opts.Peers) > 0 {
		cl, err := cluster.New(cluster.Config{
			Self:           opts.Self,
			Peers:          opts.Peers,
			HealthInterval: opts.HealthInterval,
		})
		if err != nil {
			s.disk.Close()
			return nil, err
		}
		s.cl = cl
	}
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("/v1/plan-from-trace", s.handlePlanFromTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/clusterz", s.handleClusterz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/debug/vars", expvar.Handler())
	return s, nil
}

// Close releases the server's long-lived resources: the cluster health
// prober and the disk store. It does not drain in-flight HTTP requests —
// that is StartDrain + http.Server.Shutdown's job.
func (s *Server) Close() error {
	if s.cl != nil {
		s.cl.Close()
	}
	return s.disk.Close()
}

// DiskStats returns the disk cache tier's counters (zero without CacheDir).
func (s *Server) DiskStats() cas.Stats { return s.disk.Stats() }

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain puts the server into draining mode: /healthz flips to 503 (so
// load balancers stop routing here) and new solve work is rejected with
// 503, while requests already in flight run to completion. Pair it with
// http.Server.Shutdown for a graceful SIGTERM path.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats returns a snapshot of the serve-layer counters.
func (s *Server) Stats() obs.ServeStats { return s.stats.Snapshot() }

// errorBody is the uniform JSON error envelope of every non-2xx response.
type errorBody struct {
	// Code echoes the HTTP status.
	Code int `json:"code"`
	// Message is the human-readable error.
	Message string `json:"message"`
	// Field names the offending request field on validation errors.
	Field string `json:"field,omitempty"`
}

// PointResult is the JSON answer for one solved parameter point: the solve
// response body, and one element of a sweep response. Exactly one of
// Metrics and Error is set.
type PointResult struct {
	// Key is the canonical cache key of the solved configuration.
	Key string `json:"key,omitempty"`
	// Cached reports that the answer came from the solve cache (either
	// tier).
	Cached bool `json:"cached,omitempty"`
	// DiskCached reports that the answer came from the persistent disk
	// tier after missing the in-memory LRU (and was promoted back into it).
	DiskCached bool `json:"diskCached,omitempty"`
	// Coalesced reports that the request shared another request's solve.
	Coalesced bool `json:"coalesced,omitempty"`
	// Peer names the cluster peer that answered the point, when it was
	// forwarded to its owner rather than solved here.
	Peer string `json:"peer,omitempty"`
	// Metrics are the solved steady-state metrics (the same JSON object
	// `bgperf solve -json` prints).
	Metrics *core.Metrics `json:"metrics,omitempty"`
	// Error describes a failed point.
	Error *errorBody `json:"error,omitempty"`
}

// SweepResponse is the JSON body answering POST /v1/sweep, index-aligned
// with the request points.
type SweepResponse struct {
	// Results holds one PointResult per requested point, in order.
	Results []PointResult `json:"results"`
}

// writeJSON writes v as an indented JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes the uniform error envelope — the same shape as a
// PointResult carrying only its error, so every failure body on every
// endpoint reads {"error": {code, message, field?}}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, PointResult{Error: newErrorBody(status, err)})
}

// newErrorBody wraps err into the error envelope stamped with its HTTP
// status, naming the offending field for validation failures.
func newErrorBody(status int, err error) *errorBody {
	body := &errorBody{Code: status, Message: err.Error()}
	var verr *core.ValidationError
	if errors.As(err, &verr) {
		body.Field = verr.Field
	}
	return body
}

// statusFor maps solver errors to HTTP statuses: validation failures and
// malformed or unfittable trace uploads are the caller's fault (400),
// saturated models and infeasible SLOs are semantically unanswerable (422),
// expired deadlines are 504, anything else is a 500.
func statusFor(err error) int {
	var verr *core.ValidationError
	switch {
	case errors.As(err, &verr),
		errors.Is(err, trace.ErrFormat),
		errors.Is(err, workload.ErrFitTrace):
		return http.StatusBadRequest
	case errors.Is(err, qbd.ErrUnstable), errors.Is(err, plan.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// planResultSize estimates the byte-budget charge of a cached plan: the
// result struct plus its neighborhood slice.
func planResultSize(p *plan.Result) int64 {
	return int64(unsafe.Sizeof(*p)) +
		int64(len(p.Neighborhood))*int64(unsafe.Sizeof(plan.Neighbor{}))
}

// begin runs the prologue every work endpoint shares: POST only, 503
// while draining, the request deadline, and an admission-gate slot; a
// non-nil body is then strictly decoded from the request JSON. ok=false
// means the error response is already written. On ok the caller must call
// done when it has answered.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, body any) (ctx context.Context, done func(), ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST required"))
		return nil, nil, false
	}
	if s.draining.Load() {
		s.stats.Rejected()
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining, not accepting new work"))
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	release, admitted := s.gate.acquire(ctx)
	if !admitted {
		cancel()
		shedResponse(w)
		return nil, nil, false
	}
	done = func() {
		release()
		cancel()
	}
	if body != nil {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(body); err != nil {
			writeError(w, http.StatusBadRequest,
				core.NewValidationError(core.ErrConfig, "body", "malformed request JSON: %v", err))
			done()
			return nil, nil, false
		}
	}
	return ctx, done, true
}

// solvePoint answers one parameter point through the full serving
// pipeline: memory LRU → disk tier → cluster routing → the memo's call for
// the key → solver, writing solved points through to the disk tier. local
// forces a local answer (set for requests a peer already routed here, so
// routing loops are impossible). It never panics on user input; all
// failures come back as a PointResult with Error set and the matching HTTP
// status.
func (s *Server) solvePoint(ctx context.Context, req SolveRequest, local bool) (PointResult, int) {
	s.stats.Request()
	cfg, err := req.Config()
	if err != nil {
		return pointErr("", err)
	}
	key, err := core.CacheKey(cfg)
	if err != nil {
		return pointErr("", err)
	}
	if m, ok := s.cache.Get(key); ok {
		s.stats.CacheHit()
		return PointResult{Key: key, Cached: true, Metrics: &m}, http.StatusOK
	}
	s.stats.CacheMiss()
	if m, ok := s.diskGet(key); ok {
		s.stats.DiskHit()
		s.cache.Add(key, m) // promote to the memory tier
		return PointResult{Key: key, Cached: true, DiskCached: true, Metrics: &m}, http.StatusOK
	}
	if err := ctx.Err(); err != nil {
		return pointErr(key, deadlineErr(err))
	}
	if s.cl != nil && !local {
		if peer, isLocal := s.cl.Owner(key); !isLocal {
			if res, status, ok := s.forwardSolve(ctx, peer, req, key); ok {
				return res, status
			}
			// Forward failed: degrade to a local solve below.
		}
	}
	m, src, err := s.cache.Do(ctx, key, func() (core.Metrics, error) {
		if s.solveBarrier != nil {
			s.solveBarrier()
		}
		// Do checked ctx before this call; the barrier may outlast it.
		if err := ctx.Err(); err != nil {
			return core.Metrics{}, deadlineErr(err)
		}
		s.stats.SolveStart()
		t0 := time.Now()
		model, err := core.NewModel(cfg)
		if err != nil {
			s.stats.SolveDone(time.Since(t0))
			return core.Metrics{}, err
		}
		sol, err := model.SolveObserved(s.diag)
		s.stats.SolveDone(time.Since(t0))
		if err != nil {
			return core.Metrics{}, err
		}
		s.diskPut(key, sol.Metrics)
		return sol.Metrics, nil
	})
	s.countSource(src)
	if err != nil {
		return pointErr(key, err)
	}
	return PointResult{Key: key, Cached: src == memoStored, Coalesced: src == memoShared, Metrics: &m}, http.StatusOK
}

// countSource records what Do's answer source adds to the counters: a
// finished entry is a cache hit, a shared call a coalesced request.
func (s *Server) countSource(src memoSource) {
	switch src {
	case memoStored:
		s.stats.CacheHit()
	case memoShared:
		s.stats.Coalesced()
	}
}

// pointErr answers a failed point: err in the error envelope, with the
// status statusFor maps it to.
func pointErr(key string, err error) (PointResult, int) {
	status := statusFor(err)
	return PointResult{Key: key, Error: newErrorBody(status, err)}, status
}

// deadlineErr wraps a context error so the response explains whose clock
// expired while keeping errors.Is matchability.
func deadlineErr(err error) error {
	return fmt.Errorf("serve: request deadline expired before the solve ran: %w", err)
}

// errShed is the body of an admission-gate 503.
var errShed = errors.New("serve: at capacity, retry shortly")

// diskGet consults the persistent tier and decodes its payload. A payload
// that fails to decode is treated as a miss (the envelope checksum makes
// this near-impossible; a format change across versions is the realistic
// path here, and re-solving is always safe).
func (s *Server) diskGet(key string) (core.Metrics, bool) {
	if s.disk == nil {
		return core.Metrics{}, false
	}
	payload, ok := s.disk.Get(key)
	if !ok {
		return core.Metrics{}, false
	}
	var m core.Metrics
	if err := json.Unmarshal(payload, &m); err != nil {
		return core.Metrics{}, false
	}
	return m, true
}

// diskPut writes a solved point through to the persistent tier,
// best-effort: a full disk must not fail the request — the solve already
// succeeded.
func (s *Server) diskPut(key string, m core.Metrics) {
	if s.disk == nil {
		return
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return
	}
	s.disk.Put(key, payload)
}

// forwardSolve routes one point to its owning peer and adapts the answer.
// ok=false means the peer gave no answer for the point — a transport
// failure, a 503, or a body that does not decode into a result, each of
// which marks the peer down — and the caller should solve locally. A
// forward cut short by ctx itself counts no failure (the local path then
// answers 504). Any other answer from the peer, its application errors
// included, is returned as-is with ok=true. Successful answers are
// promoted into the local memory tier (not the disk tier: the owner's disk
// already holds the point, duplicating it here would defeat the sharding).
func (s *Server) forwardSolve(ctx context.Context, peer string, req SolveRequest, key string) (PointResult, int, bool) {
	body, err := json.Marshal(req)
	if err != nil {
		return PointResult{}, 0, false
	}
	respBody, status, err := s.cl.Forward(ctx, peer, "/v1/solve", body)
	if err != nil {
		if ctx.Err() == nil {
			s.stats.ForwardFailure()
		}
		return PointResult{}, 0, false
	}
	var res PointResult
	if err := json.Unmarshal(respBody, &res); err != nil || (res.Metrics == nil && res.Error == nil) {
		s.cl.MarkDown(peer)
		s.stats.ForwardFailure()
		return PointResult{}, 0, false
	}
	s.stats.Forwarded()
	res.Peer = peer
	if status == http.StatusOK && res.Metrics != nil {
		s.cache.Add(key, *res.Metrics)
	}
	return res, status, true
}

// handleSolve answers POST /v1/solve: one parameter point.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	ctx, done, ok := s.begin(w, r, &req)
	if !ok {
		return
	}
	defer done()
	res, status := s.solvePoint(ctx, req, r.Header.Get(cluster.ForwardedHeader) != "")
	writeJSON(w, status, res)
}

// handleSweep answers POST /v1/sweep: a batch of points fanned out over the
// worker pool. Point-level failures are embedded per result; the HTTP
// status is 200 whenever the sweep itself was well-formed.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	ctx, done, ok := s.begin(w, r, &req)
	if !ok {
		return
	}
	defer done()
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest,
			core.NewValidationError(core.ErrConfig, "points", "sweep needs at least one point"))
		return
	}
	if len(req.Points) > maxSweepPoints {
		writeError(w, http.StatusBadRequest,
			core.NewValidationError(core.ErrConfig, "points", "sweep of %d points exceeds the %d-point bound", len(req.Points), maxSweepPoints))
		return
	}
	local := r.Header.Get(cluster.ForwardedHeader) != ""
	if wantsNDJSON(r) {
		s.streamSweep(ctx, w, req, local)
		return
	}
	results := make([]PointResult, len(req.Points))
	par.ForCtx(ctx, s.workers, len(req.Points), func(i int) error {
		results[i], _ = s.solvePoint(ctx, req.Points[i], local)
		return nil
	})
	writeJSON(w, http.StatusOK, SweepResponse{Results: results})
}

// PlanPointResult is the JSON answer for one capacity plan: the
// /v1/optimize and /v1/plan-from-trace response body. Exactly one of Plan
// and Error is set; the "plan" object is byte-identical to what
// `bgperf plan -json` prints for the same request.
type PlanPointResult struct {
	// Key is the canonical plan cache key (plan.CacheKey) of the request.
	Key string `json:"key,omitempty"`
	// Cached reports that the answer came from the plan cache.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that the request shared another request's search.
	Coalesced bool `json:"coalesced,omitempty"`
	// Fit summarizes the MMPP(2) fitted from an uploaded trace
	// (plan-from-trace only).
	Fit *FitSummary `json:"fit,omitempty"`
	// Plan is the solved capacity plan.
	Plan *plan.Result `json:"plan,omitempty"`
	// Error describes a failed plan.
	Error *errorBody `json:"error,omitempty"`
}

// FitSummary describes the arrival process fitted from an uploaded trace.
type FitSummary struct {
	// Samples is the number of trace inter-arrivals the fit consumed.
	Samples int `json:"samples"`
	// Rate is the fitted process's mean arrival rate (per ms).
	Rate float64 `json:"rate"`
	// SCV is the fitted squared coefficient of variation.
	SCV float64 `json:"scv"`
	// ACF1 is the fitted lag-1 autocorrelation.
	ACF1 float64 `json:"acf1"`
}

// planPoint answers one capacity plan through the plan memo → inverse-
// solver pipeline — the planner's mirror of solvePoint. The cache key
// (plan.CacheKey) covers only result-determining inputs, so the runtime
// knobs stamped here (workers, observer, context) never fragment it.
func (s *Server) planPoint(ctx context.Context, cfg core.Config, slo plan.SLO, popts plan.Options) (PlanPointResult, int) {
	s.stats.Request()
	popts.Workers = s.workers
	popts.Observer = s.diag
	popts.Ctx = ctx
	key, err := plan.CacheKey(cfg, slo, popts)
	if err != nil {
		return planErr("", err)
	}
	p, src, err := s.plans.Do(ctx, key, func() (*plan.Result, error) {
		if s.solveBarrier != nil {
			s.solveBarrier()
		}
		// Do checked ctx before this call; the barrier may outlast it.
		if err := ctx.Err(); err != nil {
			return nil, deadlineErr(err)
		}
		s.stats.PlanStart()
		defer s.stats.PlanDone()
		return plan.Maximize(cfg, slo, popts)
	})
	if src != memoStored {
		s.stats.CacheMiss()
	}
	s.countSource(src)
	if err != nil {
		return planErr(key, err)
	}
	return PlanPointResult{Key: key, Cached: src == memoStored, Coalesced: src == memoShared, Plan: p}, http.StatusOK
}

// planErr answers a failed plan: err in the error envelope, with the
// status statusFor maps it to.
func planErr(key string, err error) (PlanPointResult, int) {
	status := statusFor(err)
	return PlanPointResult{Key: key, Error: newErrorBody(status, err)}, status
}

// handleOptimize answers POST /v1/optimize: one capacity plan.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	ctx, done, ok := s.begin(w, r, &req)
	if !ok {
		return
	}
	defer done()
	cfg, slo, popts, err := req.PlanInputs()
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	res, status := s.planPoint(ctx, cfg, slo, popts)
	writeJSON(w, status, res)
}

// handlePlanFromTrace answers POST /v1/plan-from-trace: the body is a raw
// NDJSON trace (one {"interarrival": …} object per line), the query string
// carries the model and plan parameters in the same vocabulary as
// /v1/optimize. The daemon fits an MMPP(2) to the trace (the paper's
// Sec. 3.1 ingest-and-fit workflow), installs it as the arrival process,
// and answers the capacity plan.
func (s *Server) handlePlanFromTrace(w http.ResponseWriter, r *http.Request) {
	ctx, done, ok := s.begin(w, r, nil)
	if !ok {
		return
	}
	defer done()
	req, err := planTraceQuery(r.URL.Query())
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	tr, err := trace.ReadNDJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	cfg, slo, popts, fit, err := req.TracePlanInputs(tr)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	res, status := s.planPoint(ctx, cfg, slo, popts)
	if res.Error == nil {
		res.Fit = fit
	}
	writeJSON(w, status, res)
}

// handleHealthz answers GET /healthz: 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metricsSnapshot is the JSON body of GET /metrics: the serve-layer
// counters plus the solver diagnostics report, and — when the matching
// tier is enabled — the disk cache and cluster membership sections.
type metricsSnapshot struct {
	// Serve is the serving-layer section: cache, coalescing, latency.
	Serve obs.ServeStats `json:"serve"`
	// Disk is the persistent cache tier's counters; present only when the
	// daemon runs with a cache directory.
	Disk *cas.Stats `json:"disk,omitempty"`
	// Cluster is the peer membership table; present only in cluster mode.
	Cluster []cluster.PeerStatus `json:"cluster,omitempty"`
	// Diag is the solver diagnostics report (stage timings, convergence,
	// workspace pools) aggregated over every solve the daemon performed.
	Diag obs.Report `json:"diag"`
}

// handleMetrics answers GET /metrics with the combined JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := metricsSnapshot{
		Serve: s.stats.Snapshot(),
		Diag:  s.diag.Report(),
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		snap.Disk = &ds
	}
	if s.cl != nil {
		snap.Cluster = s.cl.Status()
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleClusterz answers GET /clusterz: the membership table in cluster
// mode, {"enabled": false} otherwise. Operators watch this during rolling
// restarts to see peers leave and rejoin the ring.
func (s *Server) handleClusterz(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeJSON(w, http.StatusOK, map[string]bool{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Enabled bool                 `json:"enabled"`
		Peers   []cluster.PeerStatus `json:"peers"`
	}{true, s.cl.Status()})
}
