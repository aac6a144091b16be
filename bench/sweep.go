package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"bgperf/internal/cas"
	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/par"
	"bgperf/internal/serve"
)

// sweepInstance serves sweep_paper and sweep_large: one client streams the
// same /v1/sweep grid again and again, each time to a fresh daemon, so
// every point is a cold solve. With disk set the daemon runs with a fresh
// -cache-dir and writes every point through to it.
type sweepInstance struct {
	env
	disk   bool
	points []serve.SolveRequest
	body   []byte
	client *http.Client
	d      *daemon
	fresh  bool // d has not answered a sweep yet

	first  [][]byte // lines of the first sweep answered; later ones must match
	hashes []uint64
	served obs.ServeStats // counters summed over stopped daemons
	store  cas.Stats
}

// jitter scales each value by a factor within ±1%, drawn from rng, so each
// seed solves a different grid of the same shape and cost.
func jitter(rng *rand.Rand, vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * (1 + 0.02*(rng.Float64()-0.5))
	}
	return out
}

// paperGrid is the paper's evaluation grid (Figs. 5–13): three trace
// workloads × utilization 0.1–0.8 × 12 background probabilities, buffer
// X = 5. Points are ordered so that neighbours differ in one parameter.
func paperGrid(rng *rand.Rand, quick bool) []serve.SolveRequest {
	names := []string{"email", "softdev", "useraccounts"}
	utils := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	ps := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6}
	if quick {
		names, utils, ps = names[:1], utils[:2], ps[:3]
	}
	utils, ps = jitter(rng, utils), jitter(rng, ps)
	var pts []serve.SolveRequest
	for _, w := range names {
		for _, u := range utils {
			for _, p := range ps {
				pts = append(pts, serve.SolveRequest{Workload: w, Utilization: u, BGProb: p})
			}
		}
	}
	return pts
}

// largeGrid is 32 large-state points: buffers X = 10–50, phase-type
// service and idle laws, and the capacity-modulation and admission
// scenarios, where the R solve and the boundary dominate.
func largeGrid(rng *rand.Rand, quick bool) []serve.SolveRequest {
	xs := []int{10, 20, 30, 40, 50}
	bases := []serve.SolveRequest{{Workload: "softdev", Utilization: 0.3}, {Workload: "email", Utilization: 0.2}}
	ps := jitter(rng, []float64{0.3, 0.6})
	if quick {
		xs, bases, ps = xs[:1], bases[:1], ps[1:]
	}
	for i := range bases {
		bases[i].Utilization *= 1 + 0.02*(rng.Float64()-0.5)
	}
	buf := func(x int) *int { return &x }
	var pts []serve.SolveRequest
	for _, b := range bases {
		for _, p := range ps {
			for _, x := range xs {
				r := b
				r.BGProb, r.BGBuffer = p, buf(x)
				pts = append(pts, r)
			}
			for _, ph := range []serve.SolveRequest{{ServiceSCV: 0.5}, {IdleSCV: 4}} {
				r := b
				r.BGProb, r.BGBuffer = p, buf(10)
				r.ServiceSCV, r.IdleSCV = ph.ServiceSCV, ph.IdleSCV
				pts = append(pts, r)
			}
		}
	}
	for _, x := range xs[:min(2, len(xs))] {
		mod := bases[0]
		mod.BGProb, mod.BGBuffer = ps[len(ps)-1], buf(x)
		mod.ModFactor, mod.BGAdmit, mod.DeadlineRate = 0.7, "deadline", 0.4
		thr := bases[0]
		thr.BGProb, thr.BGBuffer = ps[len(ps)-1], buf(x)
		thr.BGAdmit, thr.FGThreshold = "util-threshold", 3
		pts = append(pts, mod, thr)
	}
	return pts
}

func newSweep(grid func(*rand.Rand, bool) []serve.SolveRequest, disk bool) func(env) (instance, error) {
	return func(e env) (instance, error) {
		pts := grid(rand.New(rand.NewSource(e.seed)), e.quick)
		body, err := json.Marshal(serve.SweepRequest{Points: pts})
		if err != nil {
			return nil, err
		}
		s := &sweepInstance{env: e, disk: disk, points: pts, body: body, client: newClient(1)}
		if err := s.restart(); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// restart replaces the daemon with a fresh one, over an empty cache
// directory when the disk tier is on, folding the old one's counters into
// the totals.
func (s *sweepInstance) restart() error {
	if err := s.stopDaemon(); err != nil {
		return err
	}
	opts := daemonOptions(s.workers)
	if s.disk {
		dir, err := freshDir(filepath.Join(s.dir, "cache"))
		if err != nil {
			return err
		}
		opts.CacheDir = dir
	}
	d, err := startDaemon(opts, s.client)
	if err != nil {
		return err
	}
	s.d, s.fresh = d, true
	return nil
}

func (s *sweepInstance) stopDaemon() error {
	if s.d == nil {
		return nil
	}
	st, ds := s.d.counters()
	s.served.Requests += st.Requests
	s.served.CacheHits += st.CacheHits
	s.served.DiskHits += st.DiskHits
	s.served.Solves += st.Solves
	s.store.Hits += ds.Hits
	s.store.Misses += ds.Misses
	err := s.d.stop()
	s.d = nil
	return err
}

func (s *sweepInstance) close() error {
	s.client.CloseIdleConnections()
	return s.stopDaemon()
}

// op streams one sweep. Restarting the daemon is not timed. Each NDJSON
// line is hashed and compared with the same line of the first sweep, whose
// lines verify later compares with direct solves; firstLine is the time to
// the first line.
func (s *sweepInstance) op() (r opResult, firstLine time.Duration) {
	if !s.fresh {
		if err := s.restart(); err != nil {
			return r, 0
		}
	}
	s.fresh = false
	req, err := http.NewRequest(http.MethodPost, s.d.url+"/v1/sweep", bytes.NewReader(s.body))
	if err != nil {
		return r, 0
	}
	req.Header.Set("Accept", "application/x-ndjson")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		r.lat = time.Since(t0)
		return r, 0
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var (
		hashes []uint64
		lines  [][]byte
		readOK = resp.StatusCode == http.StatusOK
	)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if len(hashes) == 0 {
				firstLine = time.Since(t0)
			}
			h := fnv.New64a()
			h.Write(line)
			hashes = append(hashes, h.Sum64())
			if s.first == nil {
				lines = append(lines, append([]byte(nil), line...))
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			readOK = false
			break
		}
	}
	r.lat = time.Since(t0)
	r.ok = readOK && len(hashes) == len(s.points)
	if r.ok && s.first == nil {
		s.first, s.hashes = lines, hashes
	}
	r.ok = r.ok && slices.Equal(hashes, s.hashes)
	if r.ok {
		r.work = float64(len(hashes))
	}
	return r, firstLine
}

func (s *sweepInstance) load(b budget) (*phase, error) {
	p := closedLoop(1, b, func() opResult { r, _ := s.op(); return r })
	p.verify = s.verifier(p)
	return p, nil
}

// verifier returns the phase's answer check. It compares every line of the
// first complete sweep with json.Marshal of a direct
// core.NewModel(cfg).Solve() and with core.CacheKey. Every successful sweep
// matched those lines byte for byte, so a wrong first sweep makes each of
// them wrong.
func (s *sweepInstance) verifier(p *phase) func() (int, error) {
	return func() (int, error) {
		ok, err := s.firstIsRight()
		if ok || err != nil {
			return 0, err
		}
		return p.ops - p.failed, nil
	}
}

func (s *sweepInstance) firstIsRight() (bool, error) {
	if s.first == nil {
		return true, nil // no sweep succeeded; the failures are already counted
	}
	bad := make([]bool, len(s.points))
	err := par.For(s.workers, len(s.points), func(i int) error {
		want, key, err := directSolve(s.points[i])
		if err != nil {
			return err
		}
		var got struct {
			Key     string          `json:"key"`
			Metrics json.RawMessage `json:"metrics"`
		}
		bad[i] = json.Unmarshal(s.first[i], &got) != nil || got.Key != key || !sameJSON(got.Metrics, want)
		return nil
	})
	return countTrue(bad) == 0, err
}

// directSolve is the reference answer for one point: the metrics JSON of a
// direct solve, and the point's cache key.
func directSolve(req serve.SolveRequest) ([]byte, string, error) {
	cfg, err := req.Config()
	if err != nil {
		return nil, "", err
	}
	key, err := core.CacheKey(cfg)
	if err != nil {
		return nil, "", err
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		return nil, "", err
	}
	sol, err := model.Solve()
	if err != nil {
		return nil, "", err
	}
	raw, err := json.Marshal(sol.Metrics)
	return raw, key, err
}

// layers runs the traced pass: each sweep streamed over HTTP is replayed
// in process, calling each layer's public function in the order
// serve.solvePoint does, with the points fanned over internal/par as the
// daemon fans them. The memory LRU and the coalescer have no public entry,
// and a cold sweep misses both.
func (s *sweepInstance) layers(b budget, tr *tracer) (map[string]float64, *phase, error) {
	if err := s.restart(); err != nil {
		return nil, nil, err
	}
	s.served, s.store = obs.ServeStats{}, cas.Stats{} // count the traced pass only
	var first []float64
	live := func() opResult {
		r, fl := s.op()
		first = append(first, float64(fl)/float64(time.Millisecond))
		return r
	}
	p, on, off, err := tracedPass(b, tr, live, s.replay)
	if err != nil {
		return nil, nil, err
	}
	p.verify = s.verifier(p)
	if err := s.stopDaemon(); err != nil {
		return nil, nil, err
	}
	lt := tr.layerTimes()
	m := servingLayers(lt, tr)
	n := float64(max(p.ops, 1))
	m["serve.self_us"] = float64(p.busy-off) / n / float64(len(s.points)) / float64(time.Microsecond)
	m["trace.overhead_pct"] = overheadPct(on, off)
	m["trace.gap_pct"] = lt.gapPct("serve.point")
	m["stream.first_line_ms"] = quantile(first, 0.5)
	reqs := float64(s.served.Requests)
	m["serve.mem_hit_ratio"] = ratio(float64(s.served.CacheHits), reqs)
	m["serve.disk_hit_ratio"] = ratio(float64(s.served.DiskHits), reqs)
	m["serve.solves_per_op"] = ratio(float64(s.served.Solves), n)
	m["cas.hit_ratio"] = ratio(float64(s.store.Hits), float64(s.store.Hits+s.store.Misses))
	if pt, sw := lt["serve.point"], lt["sweep"]; pt != nil && sw != nil {
		m["par.busy_frac"] = float64(pt.dur) / (float64(s.workers) * float64(sw.dur))
	}
	return m, p, nil
}

// replay replays one sweep, against a fresh disk store when the daemon has
// the disk tier; opening the store is not timed, as starting the daemon is
// not.
func (s *sweepInstance) replay(tr *tracer, op int) (time.Duration, error) {
	var store *cas.Store
	if s.disk {
		dir, err := freshDir(filepath.Join(s.dir, "replay"))
		if err != nil {
			return 0, err
		}
		if store, err = cas.Open(dir, cas.Options{}); err != nil {
			return 0, err
		}
		defer store.Close()
	}
	t0 := time.Now()
	root := tr.begin("sweep", -1, op)
	sp := tr.begin("serve.decode", root, op)
	var req serve.SweepRequest
	dec := json.NewDecoder(bytes.NewReader(s.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(sp)
	if err == nil {
		err = par.ForCtx(context.Background(), s.workers, len(req.Points), func(i int) error {
			return replayPoint(tr, root, op, nil, req.Points[i], store, tierSolve, core.Metrics{}, false)
		})
	}
	tr.end(root)
	return time.Since(t0), err
}
