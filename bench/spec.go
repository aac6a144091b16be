package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// spec is BENCHMARK.json: the workload names, and every metric's unit,
// direction and regression bound. The harness takes names and units from it
// and refuses to report a metric it does not declare, so the file and the
// code cannot drift apart.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one declared metric. Bound is the share of the base median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the current directory or its parent
// (the repository root seen from bench/).
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			lastErr = err
			continue
		}
		if err != nil {
			return nil, err
		}
		var s spec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("benchmark spec: %w", lastErr)
}

// metrics returns the metrics a run reports: the per-layer set for a traced
// run, the end-to-end set otherwise.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
