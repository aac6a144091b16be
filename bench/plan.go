package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bgperf/internal/core"
	"bgperf/internal/par"
	"bgperf/internal/plan"
	"bgperf/internal/serve"
)

// planSampled is how many answered plans are compared with direct
// plan.Maximize results.
const planSampled = 32

// planInstance is plan_frontier: /v1/optimize searches for the largest
// background probability softdev@0.3 sustains under a foreground
// queue-length SLO. Every SLO is distinct, so the plan cache never hits.
type planInstance struct {
	env
	base   serve.SolveRequest
	cfg    core.Config
	slos   []float64 // qlenFG bound of the i-th request
	next   atomic.Int64
	client *http.Client
	d      *daemon
	bufs   sync.Pool

	mu      sync.Mutex
	rng     *rand.Rand // reservoir sampling of answers
	seen    int
	samples []planAnswer
	last    float64 // SLO of the latest answered plan
}

// planAnswer is one answered plan kept for verification.
type planAnswer struct {
	slo  float64
	body []byte
}

// newPlan derives the SLOs from q(p=0) and q(p=1), the foreground queue
// length without and with all background work: softdev@0.3 is infeasible
// below the first and at the cap above the second, so every SLO
// q0 + f·(q1 − q0) with f in [0.2, 0.8] has a frontier inside (0, 1).
func newPlan(e env) (instance, error) {
	base := serve.SolveRequest{Workload: "softdev", Utilization: 0.3}
	cfg, err := base.Config()
	if err != nil {
		return nil, err
	}
	var q [2]float64
	for i, p := range []float64{0, 1} {
		c := cfg
		c.BGProb = p
		model, err := core.NewModel(c)
		if err != nil {
			return nil, err
		}
		sol, err := model.Solve()
		if err != nil {
			return nil, err
		}
		q[i] = sol.QLenFG
	}
	rng := rand.New(rand.NewSource(e.seed))
	n := 1 << 14 // several times what a run asks for
	if e.quick {
		n = 64
	}
	seen := map[float64]bool{}
	slos := make([]float64, 0, n)
	for len(slos) < n {
		s := q[0] + (0.2+0.6*rng.Float64())*(q[1]-q[0])
		if !seen[s] {
			seen[s] = true
			slos = append(slos, s)
		}
	}
	pl := &planInstance{env: e, base: base, cfg: cfg, slos: slos, client: newClient(e.workers), rng: rng}
	pl.bufs.New = func() any { return new(bytes.Buffer) }
	if pl.d, err = startDaemon(daemonOptions(e.workers), pl.client); err != nil {
		return nil, err
	}
	return pl, nil
}

func (pl *planInstance) close() error {
	pl.client.CloseIdleConnections()
	err := pl.d.stop()
	pl.d = nil
	return err
}

// request is the /v1/optimize body for an SLO.
func (pl *planInstance) request(slo float64) ([]byte, error) {
	return json.Marshal(serve.OptimizeRequest{SolveRequest: pl.base, SLO: plan.SLO{QLenFG: slo}, Var: "p"})
}

// op asks for the next plan and keeps a seeded reservoir sample of the
// answers for verify.
func (pl *planInstance) op() opResult {
	slo := pl.slos[int(pl.next.Add(1)-1)%len(pl.slos)]
	body, err := pl.request(slo)
	if err != nil {
		return opResult{}
	}
	buf := pl.bufs.Get().(*bytes.Buffer)
	defer pl.bufs.Put(buf)
	t0 := time.Now()
	status, err := post(pl.client, pl.d.url+"/v1/optimize", body, buf)
	r := opResult{lat: time.Since(t0)}
	if err != nil || status != http.StatusOK {
		return r
	}
	r.ok, r.work = true, 1
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.seen++
	keep := len(pl.samples)
	if keep == planSampled {
		keep = pl.rng.Intn(pl.seen)
	}
	if keep < planSampled {
		a := planAnswer{slo: slo, body: append([]byte(nil), buf.Bytes()...)}
		if keep == len(pl.samples) {
			pl.samples = append(pl.samples, a)
		} else {
			pl.samples[keep] = a
		}
	}
	pl.last = slo
	return r
}

func (pl *planInstance) load(b budget) (*phase, error) {
	p := closedLoop(pl.workers, b, pl.op)
	p.verify = pl.verify
	return p, nil
}

// verify compares the sampled answers' "plan" objects with json.Marshal of
// a direct plan.Maximize for the same SLO.
func (pl *planInstance) verify() (int, error) {
	bad := make([]bool, len(pl.samples))
	err := par.For(pl.workers, len(pl.samples), func(i int) error {
		a := pl.samples[i]
		res, err := plan.Maximize(pl.cfg, plan.SLO{QLenFG: a.slo}, plan.Options{Var: plan.VarBGProb})
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		var got struct {
			Cached bool            `json:"cached"`
			Plan   json.RawMessage `json:"plan"`
		}
		bad[i] = json.Unmarshal(a.body, &got) != nil || got.Cached || !sameJSON(got.Plan, want)
		return nil
	})
	return countTrue(bad), err
}

// layers runs the traced pass: plans are asked for one at a time over HTTP
// and each is replayed in process, calling what the daemon calls: request
// decoding, PlanInputs, plan.CacheKey, plan.Maximize with the daemon's
// worker count (its forward solves report stage spans through the
// observer) and the response encoding.
func (pl *planInstance) layers(b budget, tr *tracer) (map[string]float64, *phase, error) {
	var iters, solves int
	p, on, off, err := tracedPass(b, tr, pl.op, func(t *tracer, op int) (time.Duration, error) {
		body, err := pl.request(pl.last)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		root := t.begin("plan.op", -1, op)
		res, err := replayPlan(t, root, op, body, pl.workers)
		t.end(root)
		if err == nil && t.on {
			iters += res.Iterations
			solves += res.Solves
		}
		return time.Since(t0), err
	})
	if err != nil {
		return nil, nil, err
	}
	p.verify = pl.verify
	lt := tr.layerTimes()
	m := servingLayers(lt, tr)
	n := float64(max(p.ops, 1))
	m["serve.self_us"] = float64(p.busy-off) / n / float64(time.Microsecond)
	m["trace.overhead_pct"] = overheadPct(on, off)
	m["trace.gap_pct"] = lt.gapPct("plan.op")
	m["plan.iters_per_op"] = float64(iters) / n
	m["plan.solves_per_op"] = float64(solves) / n
	m["plan.self_us"] = lt.selfUS("plan.maximize")
	return m, p, nil
}

// replayPlan replays serve's planPoint for one /v1/optimize body.
func replayPlan(tr *tracer, root, op int, body []byte, workers int) (*plan.Result, error) {
	sp := tr.begin("serve.decode", root, op)
	var req serve.OptimizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.config", root, op)
	cfg, slo, popts, err := req.PlanInputs()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.key", root, op)
	key, err := plan.CacheKey(cfg, slo, popts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("plan.maximize", root, op)
	popts.Workers = workers
	popts.Observer = stageObserver{tr, sp, op}
	popts.Ctx = context.Background()
	res, err := plan.Maximize(cfg, slo, popts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.encode", root, op)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(serve.PlanPointResult{Key: key, Plan: res})
	tr.end(sp)
	return res, err
}
