// Command bgperfd serves the paper's analytic model as a long-running
// HTTP/JSON daemon: a solver-as-a-service front-end with one keyed table
// of results — an LRU solve cache whose in-flight entries let concurrent
// identical requests share one solve — per-request deadlines, and
// graceful draining on SIGTERM/SIGINT. Opt-in layers turn one process
// into a deployable tier: a persistent disk cache (-cache-dir), an
// admission gate (-max-inflight), and cluster mode (-peers/-self) —
// see docs/OPERATIONS.md for the handbook.
//
// Usage:
//
//	bgperfd -addr :8377
//	bgperfd -addr :8377 -cache-entries 8192 -cache-bytes 134217728 \
//	        -request-timeout 10s -workers 8 -drain-timeout 15s
//	bgperfd -addr :8377 -cache-dir /var/lib/bgperf -max-inflight 64 \
//	        -self host1:8377 -peers host1:8377,host2:8377,host3:8377
//
// Endpoints (see docs/API.md for schemas and examples):
//
//	POST /v1/solve            one parameter point → steady-state metrics
//	POST /v1/sweep            a batch of points, fanned out over the worker pool
//	                          (NDJSON-streamed under Accept: application/x-ndjson)
//	POST /v1/optimize         capacity plan: max p / X / α under a foreground SLO
//	POST /v1/plan-from-trace  NDJSON trace upload → MMPP(2) fit → capacity plan
//	GET  /healthz             200 while serving, 503 once draining
//	GET  /clusterz            cluster membership table (or {"enabled": false})
//	GET  /metrics             JSON snapshot: serve counters + solver diagnostics
//	GET  /debug/vars          process-wide expvar counters
//
// A cached or coalesced point never re-invokes the QBD solver, the daemon's
// metrics JSON for a point is byte-identical to `bgperf solve -json` for
// the same configuration, and its plan JSON is byte-identical to
// `bgperf plan -json`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bgperf/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bgperfd:", err)
		os.Exit(1)
	}
}

// run parses flags, starts the daemon, and blocks until a signal drains it.
func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("bgperfd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8377", "listen address")
		cacheEntries = fs.Int("cache-entries", serve.DefaultCacheEntries, "solve cache entry bound (negative disables caching)")
		cacheBytes   = fs.Int64("cache-bytes", serve.DefaultCacheBytes, "solve cache byte budget (negative removes the bound)")
		reqTimeout   = fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request solve deadline")
		workers      = fs.Int("workers", 0, "sweep fan-out workers (0 = one per core)")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
		cacheDir     = fs.String("cache-dir", "", "persistent disk-cache directory (empty disables the disk tier)")
		diskBytes    = fs.Int64("disk-cache-bytes", 0, "disk-cache size bound (0 = 256 MiB default, negative removes the bound)")
		maxInFlight  = fs.Int("max-inflight", 0, "admission gate: max concurrent requests (0 disables shedding)")
		maxQueue     = fs.Int("max-queue", 0, "admission gate wait-queue depth (0 = 2 × max-inflight)")
		self         = fs.String("self", "", "this daemon's advertised host:port in cluster mode")
		peers        = fs.String("peers", "", "comma-separated cluster membership, host:port each, including -self (empty = single node)")
		healthIvl    = fs.Duration("health-interval", 0, "cluster health-probe period (0 = 2s default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0")
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	s, err := serve.New(serve.Options{
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		RequestTimeout: *reqTimeout,
		Workers:        *workers,
		CacheDir:       *cacheDir,
		DiskCacheBytes: *diskBytes,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		Self:           *self,
		Peers:          peerList,
		HealthInterval: *healthIvl,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(logw, "bgperfd: listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to bind or serve.
		return err
	case <-ctx.Done():
	}

	// Drain: stop advertising health, reject new solve work with 503, and
	// give in-flight requests the grace period before closing the listener.
	fmt.Fprintln(logw, "bgperfd: signal received, draining")
	s.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(logw, "bgperfd: drained, exiting")
	return nil
}
