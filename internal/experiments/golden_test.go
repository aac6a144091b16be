package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from the current solver output")

// goldenTol is the allowed numeric drift per golden coordinate. The figure
// grids are analytic-only (no simulation), so any drift beyond float
// round-off means the solver's numbers moved.
const goldenTol = 1e-9

const goldenPath = "testdata/figures.golden"

// goldenFigures regenerates the pinned paper figures: the headline FG
// queue-length and BG completion grids (Fig. 5 and 7), the idle-wait BG
// completion grid (Fig. 10) and its arrival-dependence counterpart
// (Fig. 12). All four are analytic sweeps — deterministic for every worker
// count.
func goldenFigures(t *testing.T) []Figure {
	t.Helper()
	s := NewSuite(Options{})
	var figs []Figure
	for _, gen := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"Figure5", s.Figure5},
		{"Figure7", s.Figure7},
		{"Figure10", s.Figure10},
		{"Figure12", s.Figure12},
	} {
		res, err := gen.run()
		if err != nil {
			t.Fatalf("%s: %v", gen.name, err)
		}
		figs = append(figs, res.Figures...)
	}
	return figs
}

// writeGolden serializes figures as one tab-separated line per point, with
// full float64 round-trip precision.
func writeGolden(path string, figs []Figure) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# figure-id\tseries\tpoint\tx\ty  (regenerate with: go test ./internal/experiments -run TestGoldenFigures -update)")
	for _, fig := range figs {
		for _, s := range fig.Series {
			for i, p := range s.Points {
				fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\n", fig.ID, s.Label, i,
					strconv.FormatFloat(p.X, 'g', -1, 64),
					strconv.FormatFloat(p.Y, 'g', -1, 64))
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type goldenPoint struct {
	x, y float64
}

func readGolden(path string) (map[string]goldenPoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	points := make(map[string]goldenPoint)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("malformed golden line %q", line)
		}
		x, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, err
		}
		y, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, err
		}
		points[fields[0]+"|"+fields[1]+"|"+fields[2]] = goldenPoint{x, y}
	}
	return points, sc.Err()
}

// TestGoldenFigures pins the numeric output of the paper's headline figure
// grids (Fig. 5, 7, 10, 12) against a checked-in fixture: any drift beyond
// 1e-9 fails, so refactors of the solver, kernels, or sweep engine cannot
// silently change the reproduced results. After an intentional model change,
// regenerate with -update and review the diff.
func TestGoldenFigures(t *testing.T) {
	figs := goldenFigures(t)
	if *updateGolden {
		if err := writeGolden(goldenPath, figs); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	seen := make(map[string]bool, len(want))
	for _, fig := range figs {
		for _, s := range fig.Series {
			for i, p := range s.Points {
				key := fig.ID + "|" + s.Label + "|" + strconv.Itoa(i)
				g, ok := want[key]
				if !ok {
					t.Errorf("point %s not in golden fixture (new series? regenerate with -update)", key)
					continue
				}
				seen[key] = true
				if d := math.Abs(p.X - g.x); d > goldenTol {
					t.Errorf("%s: x drifted by %.3g (got %.17g, golden %.17g)", key, d, p.X, g.x)
				}
				if d := math.Abs(p.Y - g.y); d > goldenTol*math.Max(1, math.Abs(g.y)) {
					t.Errorf("%s: y drifted by %.3g (got %.17g, golden %.17g)", key, d, p.Y, g.y)
				}
			}
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("golden point %s no longer generated", key)
		}
	}
}
