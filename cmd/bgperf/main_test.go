package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgperf/internal/obs"
	"bgperf/internal/trace"
	"bgperf/internal/workload"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestNoSubcommand(t *testing.T) {
	if _, err := runCmd(t); err == nil {
		t.Error("missing subcommand accepted")
	}
	if _, err := runCmd(t, "bogus"); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestSolveCommand(t *testing.T) {
	out, err := runCmd(t, "solve", "-workload", "softdev", "-util", "0.3", "-p", "0.6")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fg queue length", "bg completion rate", "fg-util 0.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("solve output missing %q:\n%s", want, out)
		}
	}
}

func TestSolveNativeLoad(t *testing.T) {
	out, err := runCmd(t, "solve", "-workload", "email")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fg-util 0.08") {
		t.Errorf("native load not used:\n%s", out)
	}
}

func TestSolvePerPeriodPolicy(t *testing.T) {
	out, err := runCmd(t, "solve", "-workload", "poisson", "-util", "0.4", "-policy", "per-period")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "per-period") {
		t.Errorf("policy not reflected:\n%s", out)
	}
}

func TestSolveErrors(t *testing.T) {
	tests := [][]string{
		{"solve", "-workload", "nope"},
		{"solve", "-policy", "sometimes"},
		{"solve", "-idlemult", "-1"},
		{"solve", "-workload", "email", "-util", "2"},
	}
	for _, args := range tests {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestUnknownWorkloadMessage requires every subcommand that takes -workload
// to report an unknown catalog name with the same text.
func TestUnknownWorkloadMessage(t *testing.T) {
	const want = `core: invalid configuration: workload: unknown workload "zzz" ` +
		`(want email | softdev | useraccounts | email-lowacf | email-ipp | poisson)`
	for _, args := range [][]string{
		{"solve"},
		{"sim"},
		{"plan", "-slo-qlen", "5"},
		{"trace"},
		{"acf"},
		{"transient"},
	} {
		t.Run(args[0], func(t *testing.T) {
			_, err := runCmd(t, append(args, "-workload", "zzz")...)
			if err == nil || err.Error() != want {
				t.Errorf("got error %v, want %q", err, want)
			}
		})
	}
}

func TestPlanCommand(t *testing.T) {
	out, err := runCmd(t, "plan", "-workload", "softdev", "-util", "0.3", "-slo-qlen", "4.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"max sustainable p", "first infeasible p", "sensitivity:", "fg queue length"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
}

func TestPlanJSON(t *testing.T) {
	out, err := runCmd(t, "plan", "-workload", "softdev", "-util", "0.3", "-slo-qlen", "4.2", "-var", "x", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Var     string  `json:"var"`
		Value   float64 `json:"value"`
		AtCap   bool    `json:"atCap"`
		Solves  int     `json:"solves"`
		Metrics struct {
			QLenFG float64 `json:"qlenFG"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid plan JSON: %v\n%s", err, out)
	}
	if rep.Var != "x" || rep.Solves == 0 || rep.Metrics.QLenFG > 4.2 {
		t.Errorf("unexpected plan report: %+v", rep)
	}
}

func TestPlanInfeasible(t *testing.T) {
	_, err := runCmd(t, "plan", "-workload", "softdev", "-util", "0.3", "-slo-qlen", "0.001")
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("infeasible SLO not reported: %v", err)
	}
}

func TestPlanTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.ndjson")
	m, err := workload.ByName("email")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := trace.Generate(m, 2000, 1).WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t, "plan", "-trace", path, "-util", "0.3", "-slo-qlen", "1e9")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fitted MMPP2 from 2000 trace samples", "at the search cap"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan -trace output missing %q:\n%s", want, out)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	dir := t.TempDir()
	short := filepath.Join(dir, "short.ndjson")
	if err := os.WriteFile(short, []byte("{\"interarrival\": 50}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := [][]string{
		{"plan", "-workload", "softdev"},                              // no SLO set
		{"plan", "-workload", "nope", "-slo-qlen", "5"},               // unknown workload
		{"plan", "-slo-qlen", "5", "-var", "q"},                       // unknown variable
		{"plan", "-slo-qlen", "5", "-var", "alpha", "-idlescv", "4"},  // α-search needs exponential idle
		{"plan", "-slo-qlen", "5", "-tol", "-1"},                      // bad tolerance
		{"plan", "-slo-qlen", "5", "-tol", "1e-30"},                   // tolerance needs more than 64 steps
		{"plan", "-slo-qlen", "5", "-trace", filepath.Join(dir, "x")}, // missing trace file
		{"plan", "-slo-qlen", "5", "-trace", short},                   // too few samples to fit
		{"plan", "-slo-qlen", "5", "-idlemult", "0"},                  // explicit zero idle mult
	}
	for _, args := range tests {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestMultiDiag checks a two-class solve writes its diagnostics report.
func TestMultiDiag(t *testing.T) {
	diagPath := filepath.Join(t.TempDir(), "multi-diag.json")
	out, err := runCmd(t, "solve", "-workload", "softdev", "-util", "0.2", "-p", "0.25", "-p2", "0.5", "-diag", diagPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "diagnostics") {
		t.Errorf("two-class solve -diag output missing summary:\n%s", out)
	}
	if _, err := os.Stat(diagPath); err != nil {
		t.Errorf("diagnostics file not written: %v", err)
	}
	if _, err := runCmd(t, "solve", "-p2", "0.5", "-scheme", "cyclic"); err == nil {
		t.Error("removed -scheme flag accepted")
	}
	if _, err := runCmd(t, "multi"); err == nil {
		t.Error("removed multi subcommand accepted")
	}
}

// TestNewDiagObserver pins the observer that solve, plan, sim and check
// hand the solver: an untyped nil without -diag, so their solves stay on the
// uninstrumented path, and the report's collector with it.
func TestNewDiagObserver(t *testing.T) {
	if diag, o := newDiag(""); diag != nil || o != nil {
		t.Errorf("without -diag: collector %v, observer %#v; want both nil", diag, o)
	}
	diag, o := newDiag("diag.json")
	if diag == nil || o != obs.Observer(diag) {
		t.Errorf("with -diag: observer %#v is not the collector %p", o, diag)
	}
}

func TestSimCommand(t *testing.T) {
	out, err := runCmd(t, "sim", "-workload", "poisson", "-util", "0.4", "-p", "0.5", "-time", "1e6", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simulated", "fg arrivals", "qlen 95% half-width"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q:\n%s", want, out)
		}
	}
}

func TestSimDeterministicIdle(t *testing.T) {
	if _, err := runCmd(t, "sim", "-workload", "poisson", "-util", "0.4", "-time", "1e5", "-detidle"); err != nil {
		t.Fatal(err)
	}
}

func TestTraceCommand(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "trace.csv")
	out, err := runCmd(t, "trace", "-workload", "useraccounts", "-n", "5000", "-out", dest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sample ACF") {
		t.Errorf("trace output missing stats:\n%s", out)
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 5001 { // header + rows
		t.Errorf("trace file has %d lines, want 5001", lines)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := runCmd(t, "trace", "-n", "0"); err == nil {
		t.Error("zero-length trace accepted")
	}
	if _, err := runCmd(t, "trace", "-workload", "zzz"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFitCommand(t *testing.T) {
	out, err := runCmd(t, "fit", "-rate", "0.01", "-scv", "30", "-decay", "0.99")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MMPP2 fit") || !strings.Contains(out, "achieved") {
		t.Errorf("fit output incomplete:\n%s", out)
	}
}

func TestFitInfeasible(t *testing.T) {
	if _, err := runCmd(t, "fit", "-scv", "0.5"); err == nil {
		t.Error("infeasible fit accepted")
	}
}

func TestACFCommand(t *testing.T) {
	out, err := runCmd(t, "acf", "-workload", "email-ipp", "-lags", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rate=") || len(strings.Split(strings.TrimSpace(out), "\n")) != 6 {
		t.Errorf("acf output unexpected:\n%s", out)
	}
}

func TestACFErrors(t *testing.T) {
	if _, err := runCmd(t, "acf", "-lags", "0"); err == nil {
		t.Error("zero lags accepted")
	}
}

func TestWorkloadByNameAll(t *testing.T) {
	for _, name := range []string{"email", "softdev", "useraccounts", "email-lowacf", "email-ipp", "poisson", "Email", "SOFTDEV"} {
		if _, err := workload.ByName(name); err != nil {
			t.Errorf("workload %q: %v", name, err)
		}
	}
}

// TestMultiCommand pins a two-class solve (a second BG priority class via
// -p2) byte-for-byte: the two-class numbers must not move when the model
// code is restructured.
func TestMultiCommand(t *testing.T) {
	out, err := runCmd(t, "solve", "-workload", "softdev", "-util", "0.2", "-p", "0.3", "-p2", "0.3")
	if err != nil {
		t.Fatal(err)
	}
	const want = `workload softdev, fg-util 0.2, p 0.3, buffer 5, p2 0.3, buffer2 5, idle wait 6 ms (per-job)
fg queue length          0.618874
fg response time ms       18.5662
fg delayed by bg         0.184415
bg completion rate       0.747191
bg queue length          0.777505
util fg/bg                    0.2 0.0448315
p(idle-wait)/p(empty)   0.0604286 0.679143
bg gen/drop rate             0.01 0.00252809
class-2 completion       0.259953
class-2 queue length      1.38767
bg throughput 1/2      0.00747191 0.00259953
fg qlen stddev            1.53547
tail decay sp(R)         0.618437
fg qlen quantiles    q50=0 q95=4 q99=7 
`
	if out != want {
		t.Errorf("two-class solve output changed:\n got:\n%s\nwant:\n%s", out, want)
	}
}

func TestMultiErrors(t *testing.T) {
	if _, err := runCmd(t, "solve", "-p", "0.8", "-p2", "0.8"); err == nil {
		t.Error("p+p2 > 1 accepted")
	}
	if _, err := runCmd(t, "solve", "-p2", "0.3", "-idlemult", "0"); err == nil {
		t.Error("zero idlemult accepted")
	}
}

func TestTransientCommand(t *testing.T) {
	out, err := runCmd(t, "transient", "-workload", "poisson", "-util", "0.3", "-horizon", "100", "-points", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "warmup from an empty system") {
		t.Errorf("transient output unexpected:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 6 { // 2 headers + 4 rows
		t.Errorf("transient printed %d lines, want 6:\n%s", got, out)
	}
}

func TestTransientErrors(t *testing.T) {
	if _, err := runCmd(t, "transient", "-horizon", "-5"); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := runCmd(t, "transient", "-maxlevel", "1"); err == nil {
		t.Error("tiny truncation accepted")
	}
}

func TestServiceSCVFlag(t *testing.T) {
	smooth, err := runCmd(t, "solve", "-workload", "poisson", "-util", "0.5", "-servicescv", "0.25")
	if err != nil {
		t.Fatal(err)
	}
	rough, err := runCmd(t, "solve", "-workload", "poisson", "-util", "0.5", "-servicescv", "4")
	if err != nil {
		t.Fatal(err)
	}
	if smooth == rough {
		t.Error("service SCV flag has no effect")
	}
	if _, err := runCmd(t, "solve", "-servicescv", "-1"); err == nil {
		t.Error("negative service SCV accepted")
	}
}

func TestIdleSCVFlag(t *testing.T) {
	expo, err := runCmd(t, "solve", "-workload", "poisson", "-util", "0.5", "-p", "0.6")
	if err != nil {
		t.Fatal(err)
	}
	erlang, err := runCmd(t, "solve", "-workload", "poisson", "-util", "0.5", "-p", "0.6", "-idlescv", "0.125")
	if err != nil {
		t.Fatal(err)
	}
	if expo == erlang {
		t.Error("idle SCV flag has no effect")
	}
	if _, err := runCmd(t, "solve", "-idlescv", "-2"); err == nil {
		t.Error("negative idle SCV accepted")
	}
}

func TestJSONOutput(t *testing.T) {
	out, err := runCmd(t, "solve", "-workload", "poisson", "-util", "0.4", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if m["qlenFG"] <= 0 || m["compBG"] <= 0 {
		t.Errorf("unexpected JSON metrics: %v", m)
	}
	simOut, err := runCmd(t, "sim", "-workload", "poisson", "-util", "0.4", "-time", "1e5", "-json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(simOut), &m); err != nil {
		t.Fatalf("invalid sim JSON: %v", err)
	}
}

func TestSolveTailOutput(t *testing.T) {
	out, err := runCmd(t, "solve", "-workload", "poisson", "-util", "0.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tail decay sp(R)", "fg qlen quantiles", "q95="} {
		if !strings.Contains(out, want) {
			t.Errorf("solve output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckCommand(t *testing.T) {
	out, err := runCmd(t, "check", "-n", "4", "-seed", "1", "-reps", "4")
	if err != nil {
		t.Fatalf("conformance check failed: %v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "PASS:") {
		t.Errorf("check output missing PASS summary:\n%s", out)
	}

	jsonOut, err := runCmd(t, "check", "-n", "2", "-seed", "3", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Cases       int `json:"cases"`
		Comparisons int `json:"comparisons"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("invalid check JSON: %v", err)
	}
	if rep.Cases != 2 || rep.Comparisons != 10 {
		t.Errorf("check JSON reports %d cases, %d comparisons; want 2, 10 (5 paper metrics per case)", rep.Cases, rep.Comparisons)
	}

	diagPath := filepath.Join(t.TempDir(), "check-diag.json")
	out, err = runCmd(t, "check", "-n", "1", "-diag", diagPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sim runs") {
		t.Errorf("check diagnostics summary missing sim counters:\n%s", out)
	}
	if _, err := os.Stat(diagPath); err != nil {
		t.Errorf("diagnostics file not written: %v", err)
	}

	if _, err := runCmd(t, "check", "-n", "0"); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := runCmd(t, "check", "-reps", "1"); err == nil {
		t.Error("reps=1 accepted")
	}
	if _, err := runCmd(t, "check", "-workers", "-1"); err == nil {
		t.Error("workers=-1 accepted")
	}
}
