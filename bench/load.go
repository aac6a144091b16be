package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bgperf/internal/cas"
	"bgperf/internal/obs"
	"bgperf/internal/serve"
)

// daemonOptions returns the serve.Options cmd/bgperfd builds from its flag
// defaults with -workers set to the core count. Workloads then apply the
// flags they document (-cache-dir, -cache-entries).
func daemonOptions(workers int) serve.Options {
	return serve.Options{
		CacheEntries:   serve.DefaultCacheEntries,
		CacheBytes:     serve.DefaultCacheBytes,
		RequestTimeout: serve.DefaultRequestTimeout,
		Workers:        workers,
	}
}

// daemon is one in-process bgperfd: serve.New mounted on an http.Server
// over a real loopback listener, as cmd/bgperfd mounts it.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon starts a daemon on an ephemeral loopback port and waits until
// /healthz answers through client.
func startDaemon(opts serve.Options, client *http.Client) (*daemon, error) {
	s, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	d := &daemon{
		srv:  s,
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// counters snapshots the daemon's serve-layer and disk-tier counters.
func (d *daemon) counters() (obs.ServeStats, cas.Stats) {
	return d.srv.Stats(), d.srv.DiskStats()
}

// stop drains and shuts the daemon down and waits for its serve loop to
// return. A nil daemon has nothing to stop.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.StartDrain()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient returns an HTTP client that opens at most conns connections:
// the load of one benchmark process never exceeds its core count.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends body to url and reads the whole answer into buf. It returns
// the status code; transport errors come back as err.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// budget bounds one load phase: it stops starting operations once d has
// passed or once ops operations have started. A zero field is no bound.
type budget struct {
	d   time.Duration
	ops int
}

// opResult is the outcome of one operation: its latency, whether it
// succeeded, and the units of work it completed.
type opResult struct {
	lat  time.Duration
	ok   bool
	work float64
}

// phase is what one load phase measured.
type phase struct {
	lat    []time.Duration // latency of every operation
	late   []time.Duration // open loop only: send time minus due time
	ops    int             // operations attempted
	failed int             // operations that failed or were refused
	work   float64         // units of work completed by successful operations
	busy   time.Duration   // time the work counts against: summed latency per client, or wall time in an open loop
	// verify checks the recorded answers against direct references, after
	// timing, and returns how many operations answered wrongly.
	verify func() (int, error)
}

// add folds one operation into the phase.
func (p *phase) add(r opResult) {
	p.ops++
	p.lat = append(p.lat, r.lat)
	p.busy += r.lat
	if r.ok {
		p.work += r.work
	} else {
		p.failed++
	}
}

// closedLoop runs op back to back from clients goroutines until the budget
// is spent: each client sends its next request only after the previous one
// completed. The phase's busy time is the summed latency divided by the
// client count.
func closedLoop(clients int, b budget, op func() opResult) *phase {
	var (
		mu      sync.Mutex
		p       = &phase{}
		started atomic.Int64
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(b.d)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for b.d == 0 || time.Now().Before(deadline) {
				if n := started.Add(1); b.ops != 0 && n > int64(b.ops) {
					return
				}
				r := op()
				mu.Lock()
				p.add(r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.busy /= time.Duration(clients)
	return p
}

// timerSlack is the Linux default slack of a sleeping thread's timer: a
// nanosleep wakes up to this much after its deadline.
const timerSlack = 50 * time.Microsecond

// sleepUntil blocks the calling thread until t. It uses nanosleep directly:
// the runtime's timers round short sleeps up to a millisecond on an idle
// process, which would make the generator, not the server, set latency.
// The sleep ends a timer slack early and the rest is spun.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// openLoop offers Poisson arrivals at rate per second for b.d over conns
// sender goroutines, each with its own connection. A request is due at its
// arrival time whether or not earlier ones have completed; its latency
// counts from that due time, so a stall delays every request queued behind
// it. late records how far behind schedule each request was sent.
func openLoop(rate float64, b budget, conns int, rng *rand.Rand, op func() opResult) *phase {
	var due []time.Duration
	for t := time.Duration(0); (b.d == 0 || t < b.d) && (b.ops == 0 || len(due) < b.ops); {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		due = append(due, t)
	}
	var (
		mu   sync.Mutex
		p    = &phase{}
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				sleepUntil(at)
				late := time.Since(at)
				r := op()
				r.lat = time.Since(at)
				mu.Lock()
				p.add(r)
				p.late = append(p.late, late)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.busy = time.Since(start)
	return p
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is left unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sampleRSS samples the process's resident set size every 100 ms until
// stop is closed, then sends the samples' median in MiB. The median of a
// run's samples is the steady-state footprint; a single peak would depend
// on where a garbage collection happened to fall.
func sampleRSS(stop <-chan struct{}, out chan<- float64) {
	var mb []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if raw, err := os.ReadFile("/proc/self/statm"); err == nil {
			var size, resident int64
			if _, err := fmt.Sscan(string(raw), &size, &resident); err == nil {
				mb = append(mb, float64(resident*int64(os.Getpagesize()))/(1<<20))
			}
		}
		select {
		case <-stop:
			out <- quantile(mb, 0.5)
			return
		case <-tick.C:
		}
	}
}

// sameJSON reports whether the JSON value raw, compacted, is byte-equal to
// want, the reference's json.Marshal output.
func sameJSON(raw, want []byte) bool {
	var c bytes.Buffer
	return json.Compact(&c, raw) == nil && bytes.Equal(c.Bytes(), want)
}

// countTrue counts the set flags.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// freshDir returns an empty directory at path, removing what was there.
func freshDir(path string) (string, error) {
	if err := os.RemoveAll(path); err != nil {
		return "", err
	}
	return path, os.MkdirAll(path, 0o755)
}
