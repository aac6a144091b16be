// Command bench is the repository benchmark. It drives the bgperfd serving
// stack over loopback HTTP, the capacity planner and the event simulator
// with inputs made from a seed, checks the answers against direct
// reference solves, and reports the end-to-end metrics BENCHMARK.json
// declares or, with --trace 1, the per-layer metrics of a traced replay.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload sweep_paper --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --runs 5 --out base.json
//	bash bench/run.sh compare base.json head.json
//
// With --workload the run prints one table line per metric and, as its
// last line, a JSON object with the keys correct, attempted, failed and
// metrics. Without it, every workload runs in its own child process, so
// set-up time and peak memory are measured per workload, and --out
// collects the results for compare. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// env is what a workload's set-up receives: the seed its inputs come from,
// the run's scratch directory under .bench_build, which its set-ups share,
// the core count, and whether to shrink the inputs for the smoke test.
type env struct {
	seed    int64
	dir     string
	workers int
	quick   bool
}

// instance is a set-up workload.
type instance interface {
	// load drives the timed load and returns what it measured.
	load(b budget) (*phase, error)
	// layers runs the traced pass and returns the per-layer metrics it
	// measured, with the phase whose answers must be verified.
	layers(b budget, tr *tracer) (map[string]float64, *phase, error)
	close() error
}

// workloadDef is one declared workload.
type workloadDef struct {
	name string
	// prepare, when set, makes inputs the set-ups share, once per run and
	// untimed.
	prepare func(env) error
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median, and the last set-up is the one measured.
	setupReps int
	// warm is the load each set-up ends with, so that caches fill and
	// lazy initialization finishes before timing, and counts as set-up.
	warm  budget
	setup func(env) (instance, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// was chosen. The set-up counts keep each run's set-ups at about a second
// or more in all, so that their median holds still.
var workloads = []*workloadDef{
	{name: "sweep_paper", setupReps: 9, warm: budget{ops: 1}, setup: newSweep(paperGrid, false)},
	{name: "sweep_large", setupReps: 3, warm: budget{ops: 1}, setup: newSweep(largeGrid, true)},
	{name: "serve_hot", prepare: prepareServeHot, setupReps: 9, warm: budget{ops: 1000}, setup: newServeHot},
	{name: "plan_frontier", setupReps: 15, warm: budget{ops: 10}, setup: newPlan},
	{name: "sim_validate", setupReps: 5, warm: budget{ops: 1}, setup: newSimValidate},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	spans   string // traced runs: write the spans here
	quick   bool
	workers int
}

// budget is the load budget of a run; a quick run stops after a handful of
// operations.
func (rc runConfig) budget() budget {
	b := budget{d: time.Duration(rc.seconds * float64(time.Second))}
	if rc.quick {
		b.ops = 2
	}
	return b
}

// result is a run's outcome: the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampled is a measured value and the number of samples behind it.
type sampled struct {
	v float64
	n int
}

// runWorkload sets w up setupReps times, then either drives its timed load
// or runs its traced pass, verifies the answers, and returns the metrics
// with their sample counts.
func runWorkload(w *workloadDef, rc runConfig, dir string) (*result, map[string]sampled, error) {
	var (
		inst   instance
		setups []float64
		err    error
	)
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	e := env{seed: rc.seed, dir: dir, workers: rc.workers, quick: rc.quick}
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return nil, nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}
	reps := w.setupReps
	if rc.quick {
		reps = 1
	} else {
		wakeCPUs(rc.workers, wakeTime)
	}
	for k := 0; k < reps; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
			inst = nil
		}
		warm := w.warm
		if rc.quick {
			warm = budget{ops: 1}
		}
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if _, err = inst.load(warm); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b := rc.budget()
	m := map[string]sampled{}
	var p *phase
	if rc.traced {
		tr := newTracer(true)
		var layers map[string]float64
		if layers, p, err = inst.layers(b, tr); err != nil {
			return nil, nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		lt := tr.layerTimes()
		for name, v := range layers {
			n := p.ops
			if l := lt[strings.TrimSuffix(name, "_us")]; l != nil {
				n = l.n
			}
			m[name] = sampled{v, n}
		}
		lat := millis(p.lat)
		m["latency_p50_ms"] = sampled{quantile(lat, 0.5), len(lat)}
		m["latency_tail_ms"] = sampled{quantile(lat, tailQuantile(len(lat))), len(lat)}
		if rc.spans != "" {
			if err := tr.write(rc.spans); err != nil {
				return nil, nil, err
			}
		}
	} else {
		stop, rss := make(chan struct{}), make(chan float64)
		go sampleRSS(stop, rss)
		p, err = inst.load(b)
		close(stop)
		rssMB := <-rss
		if err != nil {
			return nil, nil, fmt.Errorf("%s: load: %w", w.name, err)
		}
		m["setup_s"] = sampled{quantile(setups, 0.5), len(setups)}
		m["work_per_s"] = sampled{p.work / p.busy.Seconds(), p.ops}
		m["rss_mb"] = sampled{rssMB, int(b.d / (100 * time.Millisecond))}
	}
	wrong, err := p.verify()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	failed := p.failed + wrong
	res := &result{Correct: failed == 0 && p.ops > 0, Attempted: p.ops, Failed: failed}
	return res, m, nil
}

// tailQuantile is the highest of the 99th and 90th percentiles with at
// least ten of n samples beyond it, or the median.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.9
	}
	return 0.5
}

// wakeTime is how long a run keeps every core busy before its first
// set-up. On a virtual machine, cores that sat idle between runs often run
// at half speed for the first one to two seconds of load, until the
// hypervisor schedules them again; without the wake-up that would land in
// set-up time.
const wakeTime = 2 * time.Second

// wakeCPUs spins n goroutines for d.
func wakeCPUs(n int, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
}

// attach gives the measured values their declared units and fails when a
// declared metric is missing, a measured one undeclared, or a value not a
// finite number. Per-layer metrics of layers a workload does not cross are
// reported as 0.
func attach(res *result, m map[string]sampled, sp *spec, traced bool) error {
	declared := sp.metrics(traced)
	res.Metrics = map[string]metric{}
	for _, d := range declared {
		v, ok := m[d.Name]
		if !ok && !traced {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v.v)
		}
		res.Metrics[d.Name] = metric{Value: v.v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run in this process (empty: every workload, each in a child process)")
		seed    = fs.Int64("seed", 1, "seed the inputs are made from")
		seconds = fs.Float64("seconds", 0, "seconds of timed load (0: run_seconds from BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
		spans   = fs.String("spans", "", "with -trace 1 and -workload: write the spans as JSON to this file")
		runs    = fs.Int("runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
		out     = fs.String("out", "", "without -workload: write every run's result to this JSON file for compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, spans: *spans, workers: runtime.NumCPU()}
	if *name == "" {
		return runAll(rc, *runs, *out, sp, stdout)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	res, m, err := runWorkload(w, rc, dir)
	if err == nil {
		err = attach(res, m, sp, rc.traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(stdout, w.name, res, m)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// printTable prints one line per metric: name, value, unit and the number
// of samples behind it.
func printTable(w io.Writer, workload string, res *result, m map[string]sampled) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "%-14s %-22s %14.6g %-8s n=%d\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit, m[n].n)
	}
}

// report is the file -out writes: every run of every workload.
type report struct {
	NumCPU  int         `json:"nproc"`
	Seconds float64     `json:"seconds"`
	Traced  bool        `json:"traced"`
	Runs    []reportRun `json:"runs"`
}

type reportRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// runAll runs every workload runs times, each run in a child process of
// this binary, and summarizes the medians and quartiles.
func runAll(rc runConfig, runs int, out string, sp *spec, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := report{NumCPU: rc.workers, Seconds: rc.seconds, Traced: rc.traced}
	trace, status := 0, 0
	if rc.traced {
		trace = 1
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			seed := rc.seed + int64(r)
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			res, err := runChild(exe, args, stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			rep.Runs = append(rep.Runs, reportRun{Workload: w.name, Seed: seed, Result: *res})
		}
	}
	summarize(stdout, rep, sp)
	if out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process, copies its table to
// stdout, and parses the result from its last line.
func runChild(exe string, args []string, stdout io.Writer) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(stdout, "%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if len(last) == 0 || json.Unmarshal(last, &res) != nil {
		if runErr == nil {
			runErr = errors.New("no result line")
		}
		return nil, runErr
	}
	return &res, nil
}

// summarize prints, per workload and metric, the median and quartiles over
// the runs.
func summarize(w io.Writer, rep report, sp *spec) {
	fmt.Fprintf(w, "\n# %d runs, nproc=%d, %gs each: median [q1, q3]\n", len(rep.Runs), rep.NumCPU, rep.Seconds)
	for _, wl := range workloads {
		for _, ms := range sp.metrics(rep.Traced) {
			vals := values(rep, wl.name, ms.Name)
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			fmt.Fprintf(w, "%-14s %-22s %14.6g [%.6g, %.6g] %-8s runs=%d\n",
				wl.name, ms.Name, quantile(vals, 0.5), q1, q3, ms.Unit, len(vals))
		}
	}
}

// values collects one metric of one workload over a report's runs.
func values(rep report, workload, metric string) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}
