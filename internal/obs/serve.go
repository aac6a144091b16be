package obs

import (
	"expvar"
	"sort"
	"sync"
	"time"
)

// Serve-layer counters exported via expvar, alongside the solver counters
// above. The bgperfd daemon mounts expvar.Handler at /debug/vars, so these
// process-wide totals are scrapeable even without the /metrics snapshot.
var (
	expServeRequests    = expvar.NewInt("bgperf.serve.requests")
	expServeCacheHits   = expvar.NewInt("bgperf.serve.cache_hits")
	expServeCacheMisses = expvar.NewInt("bgperf.serve.cache_misses")
	expServeCoalesced   = expvar.NewInt("bgperf.serve.coalesced")
	expServeSolves      = expvar.NewInt("bgperf.serve.solves")
	expServePlans       = expvar.NewInt("bgperf.serve.plans")
	expServeInFlight    = expvar.NewInt("bgperf.serve.in_flight")
	expServeRejected    = expvar.NewInt("bgperf.serve.rejected")
	expServeDiskHits    = expvar.NewInt("bgperf.serve.disk_hits")
	expServeForwarded   = expvar.NewInt("bgperf.serve.forwarded")
	expServeForwardFail = expvar.NewInt("bgperf.serve.forward_failures")
	expServeShed        = expvar.NewInt("bgperf.serve.shed")
	expServeQueueDepth  = expvar.NewInt("bgperf.serve.queue_depth")
	expServeStreams     = expvar.NewInt("bgperf.serve.streams")
)

// serveLatencyWindow bounds the latency reservoir: quantiles are computed
// over the most recent window of solve durations, so a long-running daemon
// reports current behavior rather than its lifetime average.
const serveLatencyWindow = 1024

// ServeStats is the snapshot of one ServeCollector — the serve-layer section
// of the bgperfd /metrics report.
type ServeStats struct {
	// Requests counts solve points (solve requests plus individual sweep
	// points) and capacity plans (optimize and plan-from-trace requests
	// that reach the plan cache) handled, whatever their outcome.
	Requests int64 `json:"requests"`
	// CacheHits counts solve points and plans answered straight from the
	// memory solve or plan cache.
	CacheHits int64 `json:"cacheHits"`
	// CacheMisses counts solve points and plans that found no answer in
	// the memory solve or plan cache.
	CacheMisses int64 `json:"cacheMisses"`
	// Coalesced counts solve points and plans that piggybacked on an
	// identical in-flight solve or search instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Solves counts solver invocations actually performed — cache misses
	// that started the call for their key and ran the QBD machinery.
	Solves int64 `json:"solves"`
	// Plans counts inverse-solver searches actually performed — capacity
	// plans that missed the plan cache and started the call for their
	// key. One plan runs many internal forward solves; those are not
	// counted under Solves, which tallies only request-level solver
	// invocations.
	Plans int64 `json:"plans"`
	// InFlight is the number of solves running at snapshot time.
	InFlight int64 `json:"inFlight"`
	// Rejected counts requests refused with 503 while draining.
	Rejected int64 `json:"rejected"`
	// DiskHits counts requests answered from the persistent disk tier
	// (internal/cas) after missing the in-memory LRU. A restarted daemon
	// re-serving a warmed sweep shows DiskHits equal to the grid size and
	// zero Solves.
	DiskHits int64 `json:"diskHits"`
	// Forwarded counts points routed to their owning cluster peer and
	// answered by it.
	Forwarded int64 `json:"forwarded"`
	// ForwardFailures counts forwards the owning peer gave no answer for
	// (transport error, 503, undecodable body), each of which marked the
	// peer down and fell back to a local solve.
	ForwardFailures int64 `json:"forwardFailures"`
	// Shed counts requests refused with 503 + Retry-After by the
	// admission gate (max in-flight and queue both full).
	Shed int64 `json:"shed"`
	// Queued is the number of requests waiting at the admission gate at
	// snapshot time.
	Queued int64 `json:"queued"`
	// Streams counts NDJSON streaming sweeps started.
	Streams int64 `json:"streams"`
	// LatencySamples is how many solve durations the quantiles below are
	// computed from (at most the most recent 1024).
	LatencySamples int64 `json:"latencySamples"`
	// LatencyP50Ms and LatencyP99Ms are nearest-rank quantiles of the solve
	// duration in milliseconds, over the recent-sample window.
	LatencyP50Ms float64 `json:"latencyP50Ms"`
	LatencyP99Ms float64 `json:"latencyP99Ms"`
}

// ServeCollector aggregates serving-layer events — cache effectiveness,
// request coalescing, in-flight pressure, and solve-latency quantiles — for
// the bgperfd daemon. Like Diagnostics, it is concurrency-safe, mirrors its
// totals into package-level expvar counters, and every method is a nil-safe
// no-op so an unobserved serving stack costs nothing.
type ServeCollector struct {
	mu sync.Mutex

	requests    int64
	cacheHits   int64
	cacheMiss   int64
	coalesced   int64
	solves      int64
	plans       int64
	inFlight    int64
	rejected    int64
	diskHits    int64
	forwarded   int64
	forwardFail int64
	shed        int64
	queued      int64
	streams     int64
	recorded    int64
	latMs       [serveLatencyWindow]float64
}

// NewServeCollector returns an empty serve-layer collector.
func NewServeCollector() *ServeCollector { return &ServeCollector{} }

// Request records one solve point or capacity plan entering the serving
// stack.
func (s *ServeCollector) Request() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()
	expServeRequests.Add(1)
}

// CacheHit records a point or plan answered from the memory cache.
func (s *ServeCollector) CacheHit() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cacheHits++
	s.mu.Unlock()
	expServeCacheHits.Add(1)
}

// CacheMiss records a point or plan that missed the memory cache.
func (s *ServeCollector) CacheMiss() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cacheMiss++
	s.mu.Unlock()
	expServeCacheMisses.Add(1)
}

// Coalesced records a point or plan that joined an identical in-flight
// solve or search.
func (s *ServeCollector) Coalesced() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.coalesced++
	s.mu.Unlock()
	expServeCoalesced.Add(1)
}

// Rejected records a request refused while the daemon drains.
func (s *ServeCollector) Rejected() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	expServeRejected.Add(1)
}

// DiskHit records a request answered from the persistent disk cache tier.
func (s *ServeCollector) DiskHit() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.diskHits++
	s.mu.Unlock()
	expServeDiskHits.Add(1)
}

// Forwarded records a point routed to and answered by its owning peer.
func (s *ServeCollector) Forwarded() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.forwarded++
	s.mu.Unlock()
	expServeForwarded.Add(1)
}

// ForwardFailure records a forward that failed and fell back to a local
// solve.
func (s *ServeCollector) ForwardFailure() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.forwardFail++
	s.mu.Unlock()
	expServeForwardFail.Add(1)
}

// Shed records a request refused by the admission gate.
func (s *ServeCollector) Shed() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
	expServeShed.Add(1)
}

// QueueDepth adjusts the admission-gate queue gauge by delta (+1 on
// enqueue, -1 on dequeue).
func (s *ServeCollector) QueueDepth(delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.queued += delta
	s.mu.Unlock()
	expServeQueueDepth.Add(delta)
}

// Stream records an NDJSON streaming sweep starting.
func (s *ServeCollector) Stream() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.streams++
	s.mu.Unlock()
	expServeStreams.Add(1)
}

// SolveStart records a solver invocation beginning; pair it with SolveDone.
func (s *ServeCollector) SolveStart() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()
	expServeInFlight.Add(1)
}

// SolveDone records a solver invocation completing after duration d.
func (s *ServeCollector) SolveDone(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.inFlight--
	s.solves++
	s.latMs[s.recorded%serveLatencyWindow] = float64(d) / float64(time.Millisecond)
	s.recorded++
	s.mu.Unlock()
	expServeInFlight.Add(-1)
	expServeSolves.Add(1)
}

// PlanStart records an inverse-solver search beginning; pair with PlanDone.
func (s *ServeCollector) PlanStart() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()
	expServeInFlight.Add(1)
}

// PlanDone records an inverse-solver search completing. Plan durations are
// deliberately kept out of the solve-latency reservoir: one plan spans many
// forward solves, so mixing the two would skew the quantiles.
func (s *ServeCollector) PlanDone() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.inFlight--
	s.plans++
	s.mu.Unlock()
	expServeInFlight.Add(-1)
	expServePlans.Add(1)
}

// Snapshot returns a consistent copy of the serve-layer statistics,
// including nearest-rank latency quantiles over the recent-sample window.
func (s *ServeCollector) Snapshot() ServeStats {
	if s == nil {
		return ServeStats{}
	}
	s.mu.Lock()
	st := ServeStats{
		Requests:        s.requests,
		CacheHits:       s.cacheHits,
		CacheMisses:     s.cacheMiss,
		Coalesced:       s.coalesced,
		Solves:          s.solves,
		Plans:           s.plans,
		InFlight:        s.inFlight,
		Rejected:        s.rejected,
		DiskHits:        s.diskHits,
		Forwarded:       s.forwarded,
		ForwardFailures: s.forwardFail,
		Shed:            s.shed,
		Queued:          s.queued,
		Streams:         s.streams,
	}
	n := s.recorded
	if n > serveLatencyWindow {
		n = serveLatencyWindow
	}
	lats := append([]float64(nil), s.latMs[:n]...)
	s.mu.Unlock()
	st.LatencySamples = n
	if n > 0 {
		sort.Float64s(lats)
		st.LatencyP50Ms = quantileNearestRank(lats, 0.50)
		st.LatencyP99Ms = quantileNearestRank(lats, 0.99)
	}
	return st
}

// quantileNearestRank returns the nearest-rank q-quantile of sorted (q in
// (0, 1]): the smallest sample with rank ≥ q·n.
func quantileNearestRank(sorted []float64, q float64) float64 {
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
