package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bgperf/internal/cas"
	"bgperf/internal/core"
	"bgperf/internal/par"
	"bgperf/internal/serve"
)

// serve_hot sizing. The store holds hotKeys solved points and the memory
// LRU a quarter of them (-cache-entries), so Zipf(hotZipf) draws split
// between memory hits and disk hits and nothing is solved.
const (
	hotKeys    = 4096
	hotZipf    = 1.1
	hotRate    = 4000 // req/s offered by the traced pass's open loop
	hotChecked = 256  // keys whose answers are compared with direct solves
)

// hotInstance is serve_hot: /v1/solve requests for points already solved,
// against a daemon restarted over the disk store that solved them.
type hotInstance struct {
	env
	reqs     []serve.SolveRequest
	bodies   [][]byte
	seq      []uint16 // key of the i-th request: Zipf ranks over a seeded permutation
	next     atomic.Int64
	rng      *rand.Rand
	client   *http.Client
	d        *daemon
	cacheDir string
	bufs     sync.Pool

	mu     sync.Mutex
	first  [][]byte // first answer body per key
	hashes []uint64 // hash of the metrics in that answer
	record bool
	last   hotOp // with record set, the latest request and the tier that answered
}

// hotOp is one request and the tier that answered it.
type hotOp struct {
	key  int
	tier tier
}

var metricsTag = []byte(`"metrics":`)

// hotKeyCount is how many keys serve_hot's store holds.
func hotKeyCount(e env) int {
	if e.quick {
		return 32
	}
	return hotKeys
}

// hotRequests draws serve_hot's n keys from rng: /v1/solve requests over
// the three trace workloads at utilizations 0.1–0.7.
func hotRequests(rng *rand.Rand, n int) []serve.SolveRequest {
	names := []string{"email", "softdev", "useraccounts"}
	reqs := make([]serve.SolveRequest, n)
	for i := range reqs {
		reqs[i] = serve.SolveRequest{Workload: names[i%3], Utilization: 0.1 + 0.6*rng.Float64(), BGProb: 0.05 + 0.85*rng.Float64()}
	}
	return reqs
}

// hotStore is the disk store's directory within a run's scratch directory.
const hotStore = "store"

// prepareServeHot solves every key through a first daemon over a fresh
// cache directory, which writes each point through to disk, and stops it.
// It runs once per run, before the timed set-ups, which start the second
// daemon over the full store: setup_s is that start (the store's scan of
// its objects) and the warm-up. Solving and writing through are the
// sweeps' measure, and 4,096 synced writes would let the disk's speed,
// which drifts by a factor of two, set serve_hot's set-up time.
func prepareServeHot(e env) error {
	reqs := hotRequests(rand.New(rand.NewSource(e.seed)), hotKeyCount(e))
	dir, err := freshDir(filepath.Join(e.dir, hotStore))
	if err != nil {
		return err
	}
	client := newClient(e.workers)
	defer client.CloseIdleConnections()
	opts := daemonOptions(e.workers)
	opts.CacheDir = dir
	d, err := startDaemon(opts, client)
	if err != nil {
		return err
	}
	body, err := json.Marshal(serve.SweepRequest{Points: reqs})
	if err != nil {
		d.stop()
		return err
	}
	var buf bytes.Buffer
	status, err := post(client, d.url+"/v1/sweep", body, &buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("populating sweep: status %d", status)
	}
	if err == nil {
		var res serve.SweepResponse
		if err = json.Unmarshal(buf.Bytes(), &res); err == nil {
			for i, r := range res.Results {
				if r.Error != nil {
					err = fmt.Errorf("populating point %d: %s", i, r.Error.Message)
					break
				}
			}
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return err
}

func newServeHot(e env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	n, seqLen := hotKeyCount(e), 1<<18
	if e.quick {
		seqLen = 1 << 10
	}
	h := &hotInstance{
		env:      e,
		reqs:     hotRequests(rng, n),
		bodies:   make([][]byte, n),
		seq:      make([]uint16, seqLen),
		rng:      rng,
		client:   newClient(e.workers),
		cacheDir: filepath.Join(e.dir, hotStore),
		first:    make([][]byte, n),
		hashes:   make([]uint64, n),
	}
	h.bufs.New = func() any { return new(bytes.Buffer) }
	for i, req := range h.reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		h.bodies[i] = body
	}
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, hotZipf, 1, uint64(n-1))
	for i := range h.seq {
		h.seq[i] = uint16(perm[z.Uint64()])
	}
	opts := daemonOptions(e.workers)
	opts.CacheDir = h.cacheDir
	opts.CacheEntries = n / 4
	var err error
	if h.d, err = startDaemon(opts, h.client); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *hotInstance) close() error {
	h.client.CloseIdleConnections()
	err := h.d.stop()
	h.d = nil
	return err
}

// op sends the next request of the Zipf sequence. The metrics in each
// answer must hash the same as in the first answer for that key; verify
// compares first answers with direct solves.
func (h *hotInstance) op() opResult {
	i := int(h.next.Add(1) - 1)
	k := int(h.seq[i%len(h.seq)])
	buf := h.bufs.Get().(*bytes.Buffer)
	defer h.bufs.Put(buf)
	t0 := time.Now()
	status, err := post(h.client, h.d.url+"/v1/solve", h.bodies[k], buf)
	r := opResult{lat: time.Since(t0)}
	body := buf.Bytes()
	at := bytes.Index(body, metricsTag)
	if err != nil || status != http.StatusOK || at < 0 {
		return r
	}
	f := fnv.New64a()
	f.Write(body[at:])
	sum := f.Sum64()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.first[k] == nil {
		h.first[k], h.hashes[k] = append([]byte(nil), body...), sum
	}
	r.ok = h.hashes[k] == sum
	r.work = 1
	if h.record {
		t := tierMem
		switch {
		case bytes.Contains(body, []byte(`"diskCached": true`)):
			t = tierDisk
		case !bytes.Contains(body, []byte(`"cached": true`)):
			t = tierSolve
		}
		h.last = hotOp{key: k, tier: t}
	}
	return r
}

// load runs a closed loop over every connection the process may open, so
// the serving layers run at the throughput they sustain. Latency at a fixed
// offered rate is the traced pass's open loop: on a shared two-core machine
// its run-to-run spread is too wide to hold a regression bound.
func (h *hotInstance) load(b budget) (*phase, error) {
	p := closedLoop(h.workers, b, h.op)
	p.verify = h.verify
	return p, nil
}

// verify compares the first answer for hotChecked keys, sampled with the
// seed from those requested, with direct solves; every request for a key
// was already compared with its first answer.
func (h *hotInstance) verify() (int, error) {
	var keys []int
	for k, b := range h.first {
		if b != nil {
			keys = append(keys, k)
		}
	}
	rand.New(rand.NewSource(h.seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(len(keys), hotChecked)]
	bad := make([]bool, len(keys))
	err := par.For(h.workers, len(keys), func(i int) error {
		want, key, err := directSolve(h.reqs[keys[i]])
		if err != nil {
			return err
		}
		var got struct {
			Key     string          `json:"key"`
			Metrics json.RawMessage `json:"metrics"`
		}
		bad[i] = json.Unmarshal(h.first[keys[i]], &got) != nil || got.Key != key || !sameJSON(got.Metrics, want)
		return nil
	})
	return countTrue(bad), err
}

// layers runs the traced pass. A quarter of the budget offers Poisson
// arrivals at hotRate, which gives the latency at that rate and how late
// the generator ran. The rest sends requests one at a time, each replayed
// in process against a second handle on the daemon's disk store, with the
// tier that answered it.
func (h *hotInstance) layers(b budget, tr *tracer) (map[string]float64, *phase, error) {
	lp := openLoop(hotRate, budget{d: b.d / 4, ops: b.ops}, h.workers, h.rng, h.op)
	store, err := cas.Open(h.cacheDir, cas.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	mem := make([]core.Metrics, len(h.reqs))
	for k := range h.reqs {
		cfg, err := h.reqs[k].Config()
		if err != nil {
			return nil, nil, err
		}
		key, err := core.CacheKey(cfg)
		if err != nil {
			return nil, nil, err
		}
		payload, ok := store.Get(key)
		if !ok {
			return nil, nil, fmt.Errorf("serve_hot: key %d missing from the disk store", k)
		}
		if err := json.Unmarshal(payload, &mem[k]); err != nil {
			return nil, nil, err
		}
	}
	st0, ds0 := h.d.counters()
	h.record = true
	p, on, off, err := tracedPass(budget{d: b.d - b.d/4, ops: b.ops}, tr, h.op, func(t *tracer, op int) (time.Duration, error) {
		o, t0 := h.last, time.Now()
		err := replayPoint(t, -1, op, h.bodies[o.key], serve.SolveRequest{}, store, o.tier, mem[o.key], true)
		return time.Since(t0), err
	})
	h.record = false
	if err != nil {
		return nil, nil, err
	}
	st1, ds1 := h.d.counters()
	lt := tr.layerTimes()
	m := servingLayers(lt, tr)
	m["serve.self_us"] = float64(p.busy-off) / float64(max(p.ops, 1)) / float64(time.Microsecond)
	m["trace.overhead_pct"] = overheadPct(on, off)
	m["trace.gap_pct"] = lt.gapPct("serve.point")
	reqs := float64(st1.Requests - st0.Requests)
	m["serve.mem_hit_ratio"] = ratio(float64(st1.CacheHits-st0.CacheHits), reqs)
	m["serve.disk_hit_ratio"] = ratio(float64(st1.DiskHits-st0.DiskHits), reqs)
	m["serve.solves_per_op"] = ratio(float64(st1.Solves-st0.Solves), reqs)
	gets := float64(ds1.Hits - ds0.Hits + ds1.Misses - ds0.Misses)
	m["cas.hit_ratio"] = ratio(float64(ds1.Hits-ds0.Hits), gets)
	m["loadgen.late_p99_ms"] = quantile(millis(lp.late), 0.99)
	m["loadgen.open_p99_ms"] = quantile(millis(lp.lat), 0.99)
	p.ops += lp.ops
	p.failed += lp.failed
	p.verify = h.verify
	return m, p, nil
}
