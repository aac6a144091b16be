package core

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/workload"
)

// Two background priority classes (Config.BG2Prob > 0).

func twoClassCfg(t testing.TB, arr *arrival.MAP, mu, p1, p2 float64, x1, x2 int, alpha float64) Config {
	t.Helper()
	return Config{
		Arrival: arr, ServiceRate: mu,
		BGProb: p1, BG2Prob: p2, BGBuffer: x1, BG2Buffer: x2,
		IdleRate: alpha,
	}
}

func poisson(t testing.TB, lambda float64) *arrival.MAP {
	t.Helper()
	ap, err := arrival.Poisson(lambda)
	if err != nil {
		t.Fatal(err)
	}
	return ap
}

// fastMMPP is a bursty MMPP(2) whose phases mix quickly enough for the
// two-class simulator cross-checks.
func fastMMPP(t testing.TB, rate float64) *arrival.MAP {
	t.Helper()
	m, err := arrival.MMPP2(0.01, 0.02, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = m.WithRate(rate); err != nil {
		t.Fatal(err)
	}
	return m
}

// twoClassGoldenConfigs are the configurations of testdata/twoclass.golden:
// the nine points of experiment E-1 plus a per-period, an MMPP, and an
// asymmetric-buffer model.
func twoClassGoldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	soft, err := workload.SoftwareDevelopment()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]Config{}
	for _, util := range []float64{0.10, 0.20, 0.30} {
		scaled, err := workload.AtUtilization(soft, util)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range []struct {
			name   string
			p1, p2 float64
		}{{"25/75", 0.15, 0.45}, {"50/50", 0.30, 0.30}, {"75/25", 0.45, 0.15}} {
			cfgs[fmt.Sprintf("extension-%.2f-%s", util, sp.name)] = twoClassCfg(t, scaled,
				workload.ServiceRatePerMs, sp.p1, sp.p2, 5, 5, workload.ServiceRatePerMs)
		}
	}
	perPeriod := twoClassCfg(t, poisson(t, 1), 2, 0.5, 0.4, 3, 3, 0.8)
	perPeriod.IdlePolicy = IdleWaitPerPeriod
	cfgs["per-period"] = perPeriod
	cfgs["mmpp"] = twoClassCfg(t, fastMMPP(t, 0.35*2), 2, 0.4, 0.3, 3, 3, 1)
	cfgs["asymmetric-buffers"] = twoClassCfg(t, poisson(t, 1), 2, 0.2, 0.5, 3, 1, 2)
	return cfgs
}

// TestTwoClassGoldenParity pins the two-class metrics to the values of the
// former stand-alone two-priority solver, recorded at full precision in
// testdata/twoclass.golden before it was folded into this package.
func TestTwoClassGoldenParity(t *testing.T) {
	cfgs := twoClassGoldenConfigs(t)
	f, err := os.Open("testdata/twoclass.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sols := map[string]*Solution{}
	checked := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		name, metric := fields[0], fields[1]
		want, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := sols[name]
		if !ok {
			cfg, ok := cfgs[name]
			if !ok {
				t.Fatalf("golden config %q unknown", name)
			}
			s = solve(t, cfg)
			sols[name] = s
		}
		bg2 := s.BG2
		got, ok := map[string]float64{
			"QLenFG": s.QLenFG, "QLenBG1": s.QLenBG, "QLenBG2": bg2.QLen,
			"CompBG1": s.CompBG, "CompBG2": bg2.Comp, "WaitPFG": s.WaitPFG,
			"UtilFG": s.UtilFG, "UtilBG1": s.UtilBG, "UtilBG2": bg2.Util,
			"ProbIdleWait": s.ProbIdleWait, "ProbEmpty": s.ProbEmpty,
			"ThroughputFG": s.ThroughputFG, "ThroughputBG1": s.ThroughputBG, "ThroughputBG2": bg2.Throughput,
			"GenRateBG1": s.GenRateBG, "GenRateBG2": bg2.GenRate,
			"DropRateBG1": s.DropRateBG, "DropRateBG2": bg2.DropRate,
			"RespTimeFG": s.RespTimeFG,
		}[metric]
		if !ok {
			t.Fatalf("golden metric %q unknown", metric)
		}
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s %s = %.17g, golden %.17g (rel %.2g)", name, metric, got, want, math.Abs(got-want)/math.Abs(want))
		}
		checked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(cfgs) {
		t.Errorf("golden covers %d configs, want %d", len(sols), len(cfgs))
	}
	t.Logf("%d metrics of %d configs checked", checked, len(sols))
}

func TestTwoClassPriorityOrdering(t *testing.T) {
	// With symmetric spawn probabilities and buffers, the high-priority
	// class must complete at least as much of its work, hold a shorter
	// queue, and win the server more often.
	for _, cfg := range []Config{
		twoClassCfg(t, poisson(t, 1), 2, 0.3, 0.3, 4, 4, 1),
		twoClassCfg(t, fastMMPP(t, 0.4*2), 2, 0.3, 0.3, 4, 4, 2),
	} {
		s := solve(t, cfg)
		if s.CompBG < s.BG2.Comp {
			t.Errorf("CompBG %v < class-2 %v", s.CompBG, s.BG2.Comp)
		}
		if s.QLenBG > s.BG2.QLen {
			t.Errorf("QLenBG %v > class-2 %v", s.QLenBG, s.BG2.QLen)
		}
		if s.UtilBG < s.BG2.Util {
			t.Errorf("UtilBG %v < class-2 %v", s.UtilBG, s.BG2.Util)
		}
	}
}

func TestTwoClassSplitBracketedByPooledBuffers(t *testing.T) {
	// Splitting a total spawn probability of 0.6 across two classes with
	// buffers of 4 each gives 8 segregated slots: total BG throughput must
	// land between a single class with a 4-slot buffer (fewer slots) and one
	// with a pooled 8-slot buffer (same slots, freely shared).
	const total = 0.6
	lower := solve(t, poissonCfg(t, 0.8, 2, total, 4, 1))
	upper := solve(t, poissonCfg(t, 0.8, 2, total, 8, 1))
	for _, p1 := range []float64{0.45, 0.3, 0.15} {
		s := solve(t, twoClassCfg(t, poisson(t, 0.8), 2, p1, total-p1, 4, 4, 1))
		got := s.ThroughputBG + s.BG2.Throughput
		if got < lower.ThroughputBG-1e-9 || got > upper.ThroughputBG+1e-9 {
			t.Errorf("p1=%v: total BG throughput %v outside [%v, %v]",
				p1, got, lower.ThroughputBG, upper.ThroughputBG)
		}
	}
}

func BenchmarkSolveTwoClass(b *testing.B) {
	cfg := twoClassCfg(b, fastMMPP(b, 0.3*2), 2, 0.3, 0.3, 5, 5, 2)
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
