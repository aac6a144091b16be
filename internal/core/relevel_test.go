package core_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/check"
	"bgperf/internal/core"
	"bgperf/internal/mat"
	"bgperf/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/relevel.golden from the current solver")

// The relevel golden pins the solver's answers independently of how the
// chain is laid out in levels: brute-force tests build their reference
// generator from the model's own layout, so only recorded numbers can catch
// a wrong re-layout. Each line is "case field value" at %.17g; numbers must
// match to 1e-9 relative. Quantiles q50, q95 and q99 are recorded where
// the FGQueueDist walk reaches q99 within relevelWalkLevels levels.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/core -run TestRelevelGolden -update
const (
	relevelGoldenPath = "testdata/relevel.golden"
	relevelGoldenTol  = 1e-9
	// relevelGoldenFloor is the round-off floor of the comparison: the
	// probabilities and per-ms rates are at most 1, so values that differ
	// by less than this are both zero to double precision. Only the rare
	// BG drops of the deadline points lie below it.
	relevelGoldenFloor = 1e-15
)

// relevelCase is one pinned configuration.
type relevelCase struct {
	name string
	cfg  core.Config
}

// relevelCases lists the pinned configurations: the 32 large-state shapes
// of the sweep_large benchmark workload, the 64 configurations of `bgperf
// check -n 64 -seed 1`, and one point per scenario whose chain layout
// differs (per-period, PH idle wait, PH service, deadline, util-threshold
// with K = 0 and K = 3, no buffer, no BG work, two BG classes) plus the
// paper-grid email point.
func relevelCases(t *testing.T) []relevelCase {
	t.Helper()
	var cases []relevelCase
	add := func(name string, r serve.SolveRequest) {
		cfg, err := r.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, relevelCase{name, cfg})
	}
	buf := func(x int) *int { return &x }
	for _, b := range []serve.SolveRequest{{Workload: "softdev", Utilization: 0.3}, {Workload: "email", Utilization: 0.2}} {
		for _, p := range []float64{0.3, 0.6} {
			for _, x := range []int{10, 20, 30, 40, 50} {
				r := b
				r.BGProb, r.BGBuffer = p, buf(x)
				add(fmt.Sprintf("large/%s/p=%g/X=%d", b.Workload, p, x), r)
			}
			for _, ph := range []serve.SolveRequest{{ServiceSCV: 0.5}, {IdleSCV: 4}} {
				r := b
				r.BGProb, r.BGBuffer = p, buf(10)
				r.ServiceSCV, r.IdleSCV = ph.ServiceSCV, ph.IdleSCV
				add(fmt.Sprintf("large/%s/p=%g/svc=%g/idle=%g", b.Workload, p, ph.ServiceSCV, ph.IdleSCV), r)
			}
		}
	}
	for _, x := range []int{10, 20} {
		add(fmt.Sprintf("large/deadline/X=%d", x), serve.SolveRequest{
			Workload: "softdev", Utilization: 0.3, BGProb: 0.6, BGBuffer: buf(x),
			ModFactor: 0.7, BGAdmit: "deadline", DeadlineRate: 0.4,
		})
		add(fmt.Sprintf("large/util-threshold/X=%d", x), serve.SolveRequest{
			Workload: "softdev", Utilization: 0.3, BGProb: 0.6, BGBuffer: buf(x),
			BGAdmit: "util-threshold", FGThreshold: 3,
		})
	}
	gen := check.NewGenerator(1)
	for i := 0; i < 64; i++ {
		c := gen.Next()
		cases = append(cases, relevelCase{"check/" + c.Name, c.Cfg})
	}
	for _, p := range []struct {
		name string
		r    serve.SolveRequest
	}{
		{"per-period", serve.SolveRequest{Workload: "email", Utilization: 0.3, BGProb: 0.6, Policy: "per-period"}},
		{"ph-idle", serve.SolveRequest{Workload: "softdev", Utilization: 0.3, BGProb: 0.6, IdleSCV: 0.25}},
		{"ph-service", serve.SolveRequest{Workload: "softdev", Utilization: 0.3, BGProb: 0.6, ServiceSCV: 3}},
		{"deadline", serve.SolveRequest{Workload: "email", Utilization: 0.3, BGProb: 0.6, BGAdmit: "deadline", DeadlineRate: 0.05}},
		{"util-threshold/K=0", serve.SolveRequest{Workload: "softdev", Utilization: 0.3, BGProb: 0.6, BGAdmit: "util-threshold"}},
		{"util-threshold/K=3", serve.SolveRequest{Workload: "email", Utilization: 0.3, BGProb: 0.6, BGAdmit: "util-threshold", FGThreshold: 3}},
		{"X=0", serve.SolveRequest{Workload: "softdev", Utilization: 0.3, BGProb: 0.6, BGBuffer: buf(0)}},
		{"p=0", serve.SolveRequest{Workload: "email", Utilization: 0.3}},
		{"paper/email", serve.SolveRequest{Workload: "email", Utilization: 0.2, BGProb: 0.3}},
	} {
		add(p.name, p.r)
	}
	mmpp, err := arrival.MMPP2(0.01, 0.02, 2, 0.1)
	if err == nil {
		mmpp, err = mmpp.WithRate(0.35 * 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, relevelCase{"twoclass", core.Config{
		Arrival: mmpp, ServiceRate: 2, BGProb: 0.4, BG2Prob: 0.3, BGBuffer: 3, BG2Buffer: 2, IdleRate: 1,
	}})
	return cases
}

// relevelFields returns every pinned number of a solution, in file order.
func relevelFields(s *core.Solution) [][2]any {
	m := s.Metrics
	f := [][2]any{
		{"QLenFG", m.QLenFG}, {"QLenBG", m.QLenBG}, {"CompBG", m.CompBG}, {"WaitPFG", m.WaitPFG},
		{"UtilFG", m.UtilFG}, {"UtilBG", m.UtilBG}, {"ProbIdleWait", m.ProbIdleWait}, {"ProbEmpty", m.ProbEmpty},
		{"ThroughputFG", m.ThroughputFG}, {"ThroughputBG", m.ThroughputBG},
		{"GenRateBG", m.GenRateBG}, {"DropRateBG", m.DropRateBG},
		{"RespTimeFG", m.RespTimeFG}, {"RespTimeBG", m.RespTimeBG}, {"DeadlineMissBG", m.DeadlineMissBG},
	}
	if c := m.BG2; c != nil {
		f = append(f, [][2]any{
			{"BG2.QLen", c.QLen}, {"BG2.Comp", c.Comp}, {"BG2.Util", c.Util}, {"BG2.Throughput", c.Throughput},
			{"BG2.GenRate", c.GenRate}, {"BG2.DropRate", c.DropRate}, {"BG2.RespTime", c.RespTime},
		}...)
	}
	return append(f, [][2]any{{"FGQueueMoment2", s.FGQueueMoment2()}, {"TailDecayRate", s.TailDecayRate()}}...)
}

// relevelQuantiles lists the pinned quantile levels.
var relevelQuantiles = []struct {
	field string
	q     float64
}{{"q50", 0.5}, {"q95", 0.95}, {"q99", 0.99}}

func solveCase(t *testing.T, c relevelCase) *core.Solution {
	t.Helper()
	m, err := core.NewModel(c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return s
}

// relevelWalkLevels bounds the FGQueueDist walk that records quantiles: a
// config whose q99 lies beyond it (the bursty email points, whose q99 runs
// to hundreds of thousands) records none.
const relevelWalkLevels = 20000

// walkQuantile returns the smallest n with P(y ≤ n) ≥ q by summing dist in
// order, or false when dist does not reach q.
func walkQuantile(dist []float64, q float64) (int, bool) {
	cum := 0.0
	for n, p := range dist {
		if cum += p; cum >= q {
			return n, true
		}
	}
	return 0, false
}

func writeRelevelGolden(t *testing.T, cases []relevelCase) {
	var b strings.Builder
	for _, c := range cases {
		s := solveCase(t, c)
		for _, f := range relevelFields(s) {
			fmt.Fprintf(&b, "%s %s %.17g\n", c.name, f[0], f[1])
		}
		dist := s.FGQueueDist(relevelWalkLevels)
		if _, ok := walkQuantile(dist, relevelQuantiles[len(relevelQuantiles)-1].q); !ok {
			continue
		}
		for _, q := range relevelQuantiles {
			n, _ := walkQuantile(dist, q.q)
			fmt.Fprintf(&b, "%s %s %d\n", c.name, q.field, n)
		}
	}
	if err := os.WriteFile(relevelGoldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", relevelGoldenPath)
}

// readRelevelGolden parses the golden file into case → field → value.
func readRelevelGolden(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	f, err := os.Open(relevelGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/core -run TestRelevelGolden -update`): %v", err)
	}
	defer f.Close()
	want := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if want[fields[0]] == nil {
			want[fields[0]] = map[string]float64{}
		}
		want[fields[0]][fields[1]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestRelevelGolden(t *testing.T) {
	cases := relevelCases(t)
	if *updateGolden {
		writeRelevelGolden(t, cases)
		return
	}
	want := readRelevelGolden(t)
	if len(want) != len(cases) {
		t.Errorf("golden covers %d cases, want %d", len(want), len(cases))
	}
	quantiles := 0
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: not in golden file", c.name)
			continue
		}
		s := solveCase(t, c)
		fields := relevelFields(s)
		for _, f := range fields {
			name, got := f[0].(string), f[1].(float64)
			wv, ok := w[name]
			if !ok {
				t.Errorf("%s %s: not in golden file", c.name, name)
				continue
			}
			if d := math.Abs(got - wv); d > relevelGoldenTol*math.Abs(wv) && d > relevelGoldenFloor {
				t.Errorf("%s %s = %.17g, golden %.17g (rel %.2g)", c.name, name, got, wv, d/math.Abs(wv))
			}
		}
		extra := len(w) - len(fields)
		var dist []float64
		if q99, ok := w["q99"]; ok {
			dist = s.FGQueueDist(int(q99))
		}
		for _, q := range relevelQuantiles {
			wv, ok := w[q.field]
			if !ok {
				continue
			}
			extra--
			quantiles++
			n, err := s.FGQueueQuantile(q.q)
			if err != nil || float64(n) != wv {
				t.Errorf("%s %s = %d, %v; golden %g", c.name, q.field, n, err, wv)
			}
			if walk, _ := walkQuantile(dist, q.q); walk != n {
				t.Errorf("%s %s = %d, FGQueueDist walk %d", c.name, q.field, n, walk)
			}
		}
		if extra != 0 {
			t.Errorf("%s: golden has %d fields the solution does not report", c.name, extra)
		}
	}
	t.Logf("%d cases checked, %d quantiles", len(cases), quantiles)
}

// TestFGQueueQuantileDescent pins the quantile search on the paper-grid
// email point, whose q99 lies half a million levels out: the answers of
// the former level-by-level walk, found with one squaring of R per bit of
// the repeating-level offset.
func TestFGQueueQuantileDescent(t *testing.T) {
	cfg, err := serve.SolveRequest{Workload: "email", Utilization: 0.2, BGProb: 0.3}.Config()
	if err != nil {
		t.Fatal(err)
	}
	s := solveCase(t, relevelCase{"paper/email", cfg})
	first := s.QBD().FirstRepLevel()
	for _, tc := range []struct {
		q    float64
		want int
	}{{0.95, 244723}, {0.99, 530745}} {
		mat.ResetMulCount()
		n, err := s.FGQueueQuantile(tc.q)
		muls := mat.MulCount()
		if err != nil || n != tc.want {
			t.Errorf("q%g = %d, %v; want %d", 100*tc.q, n, err, tc.want)
		}
		if want := int64(bits.Len(uint(tc.want - first))); muls != want {
			t.Errorf("q%g took %d matrix products, want %d", 100*tc.q, muls, want)
		}
	}
}

// TestSolveEmailNearSaturation solves email points near util 0.8, where
// folding levels 1.. into level 0 leaves row sums of 1e-9 in the censored
// generator; π_0 must still come out of GTH.
func TestSolveEmailNearSaturation(t *testing.T) {
	for _, p := range []struct{ util, p float64 }{{0.80480000000000196, 0.1113}, {0.80480000000000196, 0.1384}} {
		cfg, err := serve.SolveRequest{Workload: "email", Utilization: p.util, BGProb: p.p}.Config()
		if err != nil {
			t.Fatal(err)
		}
		s := solveCase(t, relevelCase{fmt.Sprintf("email/u=%g/p=%g", p.util, p.p), cfg})
		if d := math.Abs(s.TotalMass() - 1); d > 1e-12 {
			t.Errorf("util %g, p %g: total mass off by %g", p.util, p.p, d)
		}
	}
}
