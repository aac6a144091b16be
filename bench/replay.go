package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bgperf/internal/cas"
	"bgperf/internal/core"
	"bgperf/internal/serve"
)

// tier is the serving tier that answered a point.
type tier int

const (
	tierMem   tier = iota // the memory LRU
	tierDisk              // the disk store, after a memory miss
	tierSolve             // a solve, after both missed
)

// replayPoint replays serve.solvePoint for one point in process, calling
// each layer's public function in the order solvePoint calls it and
// wrapping each call in a span: decode (when body is set), config, key,
// the disk store, the solver, the write-through and the response encoding.
// The memory LRU has no public entry, so a memory hit is replayed as the
// encoding of mem; the LRU's cost stays in serve.self_us. A nil store is a
// daemon without the disk tier.
func replayPoint(tr *tracer, parent, op int, body []byte, req serve.SolveRequest, store *cas.Store, t tier, mem core.Metrics, indent bool) error {
	id := tr.begin("serve.point", parent, op)
	defer tr.end(id)
	if body != nil {
		sp := tr.begin("serve.decode", id, op)
		req = serve.SolveRequest{}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.begin("serve.config", id, op)
	cfg, err := req.Config()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core.key", id, op)
	key, err := core.CacheKey(cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	res := serve.PointResult{Key: key}
	m := mem
	switch t {
	case tierMem:
		res.Cached = true
	case tierDisk:
		sp = tr.begin("cas.get", id, op)
		payload, ok := store.Get(key)
		if ok {
			err = json.Unmarshal(payload, &m)
		}
		tr.end(sp)
		if !ok || err != nil {
			return fmt.Errorf("replay: disk store lost point %s: %v", key, err)
		}
		res.Cached, res.DiskCached = true, true
	case tierSolve:
		if store != nil {
			sp = tr.begin("cas.get", id, op)
			store.Get(key)
			tr.end(sp)
		}
		sp = tr.begin("core.new_model", id, op)
		model, err := core.NewModel(cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("core.solve", id, op)
		sol, err := model.SolveObserved(stageObserver{tr, sp, op})
		tr.end(sp)
		if err != nil {
			return err
		}
		m = sol.Metrics
		if store != nil {
			sp = tr.begin("cas.put", id, op)
			payload, err := json.Marshal(m)
			if err == nil {
				err = store.Put(key, payload)
			}
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	res.Metrics = &m
	sp = tr.begin("serve.encode", id, op)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	err = enc.Encode(res)
	tr.end(sp)
	return err
}

// servingLayers returns the serving, disk and solver metrics of a replay.
func servingLayers(lt layerTimes, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{"serve.decode", "serve.config", "core.key", "serve.encode", "cas.get", "cas.put"} {
		m[name+"_us"] = lt.selfUS(name)
	}
	tr.solverLayers(lt, m)
	return m
}
