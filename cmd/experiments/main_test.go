package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestList(t *testing.T) {
	out, err := runCmd(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 5", "validation", "ablation", "extension"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestSingleFigureText(t *testing.T) {
	out, err := runCmd(t, "-figure", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig2-table") || !strings.Contains(out, "MMPP parameters") {
		t.Errorf("figure 2 output incomplete:\n%s", out)
	}
}

func TestSingleFigureCSVStdout(t *testing.T) {
	out, err := runCmd(t, "-figure", "2", "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# fig2") || !strings.Contains(out, "workload,v1,v2") {
		t.Errorf("CSV output incomplete:\n%s", out)
	}
}

func TestOutdir(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCmd(t, "-figure", "ablation", "-outdir", dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"ablation-idle-policy.txt", "ablation-buffer.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestOutdirCSV(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCmd(t, "-figure", "extension", "-outdir", dir, "-format", "csv"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "extension-priorities.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "util,") {
		t.Errorf("CSV header unexpected: %q", string(data[:20]))
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCmd(t, "-figure", "99"); err == nil {
		t.Error("unknown figure accepted")
	}
	if _, err := runCmd(t, "-format", "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestOutdirGnuplot(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCmd(t, "-figure", "2", "-outdir", dir, "-format", "gnuplot"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.gp"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "plot $data0") {
		t.Errorf("gnuplot script incomplete:\n%s", data)
	}
	// Tables fall back to text even in gnuplot mode.
	if _, err := os.Stat(filepath.Join(dir, "fig2-table.gp")); err != nil {
		t.Errorf("table artifact missing: %v", err)
	}
}

// TestDiagObserver pins the experiments' observer: an untyped nil without
// -diag, so their solves stay on the uninstrumented path, and the report's
// collector with it.
func TestDiagObserver(t *testing.T) {
	c, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.diag != nil || c.opts.Observer != nil {
		t.Errorf("without -diag: collector %v, observer %#v; want both nil", c.diag, c.opts.Observer)
	}
	if c, err = parse([]string{"-diag", "d.json"}); err != nil {
		t.Fatal(err)
	}
	if c.diag == nil || c.opts.Observer != c.diag {
		t.Errorf("with -diag: observer %#v is not the collector %p", c.opts.Observer, c.diag)
	}
}

// TestDiagCountsSolves checks an idle-wait figure's report counts its 48
// solves.
func TestDiagCountsSolves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diag.json")
	if _, err := runCmd(t, "-figure", "10", "-diag", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Solves int `json:"solves"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Solves != 48 {
		t.Errorf("Fig. 10 report counts %d solves, want 48", rep.Solves)
	}
}
