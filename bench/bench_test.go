package main

import (
	"testing"
)

// crossed lists, per workload, per-layer metrics its traced pass must
// measure as nonzero even on the smoke test's shrunken inputs.
var crossed = map[string][]string{
	"sweep_paper": {"serve.decode_us", "serve.config_us", "core.key_us", "serve.encode_us",
		"core.build_us", "core.metrics_us", "qbd.rsolve_us", "qbd.rsolve_iters",
		"qbd.boundary_us", "mat.ws_hit_ratio", "par.busy_frac", "stream.first_line_ms",
		"serve.solves_per_op"},
	"sweep_large": {"cas.get_us", "cas.put_us", "core.build_us", "qbd.rsolve_us", "qbd.boundary_us", "par.busy_frac"},
	"serve_hot": {"serve.decode_us", "serve.config_us", "core.key_us", "serve.encode_us",
		"serve.mem_hit_ratio", "loadgen.open_p99_ms", "loadgen.late_p99_ms"},
	"plan_frontier": {"serve.decode_us", "serve.config_us", "core.key_us", "serve.encode_us",
		"plan.iters_per_op", "plan.solves_per_op", "plan.self_us", "qbd.rsolve_us", "core.build_us"},
	"sim_validate": {"sim.events_per_rep", "sim.rep_ms", "par.busy_frac"},
}

// TestWorkloadsSmoke runs every workload on shrunken inputs for a handful
// of operations, untraced and traced, and checks the output contract:
// every declared metric is reported, no operation fails, and on
// sweep_paper and serve_hot the layer spans cover all but 5% of each
// replayed point.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the harness %s", i, sp.Workloads[i].Name, w.name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rc := runConfig{seed: 1, seconds: 60, traced: traced, quick: true, workers: 2}
				res, m, err := runWorkload(w, rc, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if err := attach(res, m, sp, traced); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if !traced {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, v.Value)
						}
					}
					continue
				}
				for _, name := range append([]string{"latency_p50_ms", "latency_tail_ms"}, crossed[w.name]...) {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("traced %s = %v, want > 0", name, res.Metrics[name].Value)
					}
				}
				if w.name == "sweep_paper" || w.name == "serve_hot" {
					if g := res.Metrics["trace.gap_pct"].Value; g > 5 {
						t.Errorf("layer spans leave %.1f%% of a replayed point uncovered, want <= 5%%", g)
					}
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1, 2, 4, ..., 512], n=4) == [3.5, 24.0, 160.0]
		{[]float64{512, 1, 64, 2, 256, 4, 128, 8, 32, 16}, 3.5, 160},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestJudge covers compare's labels.
func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{[]float64{10, 10.02, 9.95, 10.1, 9.9}, "same"},
		{[]float64{12, 12.1, 11.9, 12, 12.2}, "worse"},
		{[]float64{8, 8.1, 7.9, 8, 8.05}, "better"},
		{[]float64{6, 14, 10, 7, 13}, "unresolved"},
	} {
		if got := judge(base, c.head, lower).label; got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.head, got, c.want)
		}
	}
}
