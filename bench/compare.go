package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain implements `compare base.json head.json`: for every
// workload and end-to-end metric it compares the head runs' median with
// the base runs' median under the metric's bound from BENCHMARK.json and
// labels the pair better, same, worse or unresolved; each workload's row
// carries the worst label of its metrics. It exits 1 when any pair is
// worse.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.json head.json")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var reps [2]report
	for i, path := range fs.Args() {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-18s %12s %12s %8s %7s %6s  %s\n",
		"workload", "metric", "base", "head", "change", "spread", "bound", "label")
	for _, w := range workloads {
		row := "same"
		seen := false
		for _, ms := range sp.EndToEnd {
			base, head := values(reps[0], w.name, ms.Name), values(reps[1], w.name, ms.Name)
			if len(base) == 0 || len(head) == 0 {
				continue
			}
			seen = true
			v := judge(base, head, ms)
			fmt.Fprintf(stdout, "%-14s %-18s %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				w.name, ms.Name, v.base, v.head, 100*v.change, 100*v.spread, 100*ms.Bound, v.label)
			if rank[v.label] > rank[row] {
				row = v.label
			}
		}
		if seen {
			fmt.Fprintf(stdout, "%-14s %-18s %s\n", w.name, "(row)", row)
		}
		if row == "worse" {
			status = 1
		}
	}
	return status
}

// rank orders labels from best to worst news for a workload's row.
var rank = map[string]int{"same": 0, "better": 1, "unresolved": 2, "worse": 3}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	base, head float64 // medians
	change     float64 // (head − base) / base
	spread     float64 // wider quartile spread of the two sides, as a share of the base median
	label      string
}

// judge labels one (metric, workload) pair. When the run-to-run spread is
// wider than the bound the pair is unresolved, unless every head run beats
// every base run. Otherwise it is worse when the head median is worse by
// more than the bound, and better when it is better by more than the base
// runs' own quartile spread and wins at least nine in ten index-paired
// runs.
func judge(base, head []float64, ms metricSpec) verdict {
	v := verdict{base: quantile(base, 0.5), head: quantile(head, 0.5)}
	v.change = (v.head - v.base) / v.base
	gain := v.change // share by which head is better
	better := func(h, b float64) bool { return h > b }
	if ms.Better == "lower" {
		gain = -gain
		better = func(h, b float64) bool { return h < b }
	}
	baseIQR := iqr(base)
	v.spread = max(baseIQR, iqr(head)) / v.base
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	switch {
	case v.spread > ms.Bound && allBetter:
		v.label = "better"
	case v.spread > ms.Bound:
		v.label = "unresolved"
	case -gain > ms.Bound:
		v.label = "worse"
	case gain*v.base > baseIQR && float64(wins) >= 0.9*float64(pairs):
		v.label = "better"
	default:
		v.label = "same"
	}
	return v
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method); with
// fewer than two values both are the value itself. Run-to-run spreads use
// these everywhere; quantile stays the percentile of one run's samples.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		v := quantile(xs, 0.5)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// iqr is the distance between the quartiles.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}
