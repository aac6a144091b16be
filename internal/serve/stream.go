package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"bgperf/internal/par"
)

// streamWindow bounds how far the solvers may run ahead of the slowest
// unemitted point: at most this many completed-but-unwritten results are
// buffered before fast workers block. The window keeps memory flat on a
// 10k-point grid while still letting the pool stay busy across one slow
// point.
const streamWindow = 64

// wantsNDJSON reports whether the request asked for a streamed sweep.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamSweep answers a sweep as NDJSON: one PointResult per line, in
// request order, each line written (and flushed) as soon as its point —
// and every point before it — has finished. Lines carry exactly the
// object that the batch response holds at the same index, so a client
// concatenating the lines reconstructs SweepResponse.Results verbatim.
//
// Ordering without head-of-line memory blowup: workers park each finished
// result in its slot and signal a per-index channel; a single emitter
// walks the indices in order. A window semaphore bounds the run-ahead.
// This cannot deadlock: par claims indices in ascending order, so
// whenever the emitter is waiting on index i, every held window slot
// belongs to an index < i whose result is already (or about to be)
// signalled, and slots drain as the emitter advances.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, req SweepRequest, local bool) {
	s.stats.Stream()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	n := len(req.Points)
	results := make([]PointResult, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	window := make(chan struct{}, streamWindow)

	// The solver fan-out runs concurrently with the emitter below; its
	// cancellation rides the request context, so a disconnected client
	// (or expired deadline) stops the remaining solves.
	go par.ForCtx(ctx, s.workers, n, func(i int) error {
		select {
		case window <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		results[i], _ = s.solvePoint(ctx, req.Points[i], local)
		close(done[i])
		return nil
	})

	enc := json.NewEncoder(w) // compact: one object per line
	for i := 0; i < n; i++ {
		select {
		case <-done[i]:
		case <-ctx.Done():
			return // client gone or deadline hit: stop emitting
		}
		if err := enc.Encode(results[i]); err != nil {
			return // write failure: client disconnected mid-line
		}
		<-window
		if flusher != nil {
			flusher.Flush()
		}
	}
}
