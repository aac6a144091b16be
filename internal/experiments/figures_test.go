package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// seriesByLabel finds a series in a figure.
func seriesByLabel(t *testing.T, f Figure, label string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q (have %v)", f.ID, label, labels(f.Series))
	return Series{}
}

// figureByID finds a figure in a result.
func figureByID(t *testing.T, r Result, id string) Figure {
	t.Helper()
	for _, f := range r.Figures {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("result has no figure %q", id)
	return Figure{}
}

// yAt returns the y value at the given x (exact match).
func yAt(t *testing.T, s Series, x float64) float64 {
	t.Helper()
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("series %q has no point at x=%v", s.Label, x)
	return 0
}

func TestFigure1Shapes(t *testing.T) {
	r, err := NewSuite(Options{TraceLength: 3000000, Seed: 1}).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 1 || len(r.Tables) != 1 {
		t.Fatalf("unexpected artifact counts: %d figures, %d tables", len(r.Figures), len(r.Tables))
	}
	fig := r.Figures[0]
	if len(fig.Series) != 3 {
		t.Fatalf("got %d ACF series, want 3", len(fig.Series))
	}
	email := seriesByLabel(t, fig, "E-mail")
	soft := seriesByLabel(t, fig, "Software Development")
	// Dependence persists for E-mail, decays for Soft.Dev. (paper Fig. 1).
	if email.Points[79].Y < soft.Points[79].Y {
		t.Errorf("ACF(80): E-mail %v < Soft.Dev %v", email.Points[79].Y, soft.Points[79].Y)
	}
	if email.Points[79].Y < 0.2 {
		t.Errorf("E-mail sample ACF(80) = %v, want persistently high", email.Points[79].Y)
	}
	// The table reports the documented utilizations.
	tbl := r.Tables[0]
	wantUtil := map[string]float64{"E-mail": 0.08, "Software Development": 0.068, "User Accounts": 0.005}
	for _, row := range tbl.Rows {
		u, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "%"), 64)
		if err != nil {
			t.Fatalf("bad util cell %q", row[5])
		}
		if want := wantUtil[row[0]]; math.Abs(u/100-want) > 0.025 {
			t.Errorf("%s utilization %v%%, want ~%v%%", row[0], u, 100*want)
		}
	}
}

func TestFigure2Shapes(t *testing.T) {
	r, err := NewSuite(Options{}).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	fig := r.Figures[0]
	email := seriesByLabel(t, fig, "E-mail")
	soft := seriesByLabel(t, fig, "Software Development")
	for i := range email.Points {
		if email.Points[i].Y < 0 || email.Points[i].Y > 0.5 {
			t.Fatalf("analytic ACF out of MMPP2 range at lag %d: %v", i+1, email.Points[i].Y)
		}
	}
	if email.Points[99].Y <= soft.Points[99].Y {
		t.Errorf("ACF(100): E-mail %v must exceed Soft.Dev %v", email.Points[99].Y, soft.Points[99].Y)
	}
	if len(r.Tables[0].Rows) != 3 {
		t.Errorf("parameter table has %d rows, want 3", len(r.Tables[0].Rows))
	}
}

func TestFigure5Shapes(t *testing.T) {
	s := NewSuite(Options{})
	r, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	a := figureByID(t, r, "fig5a")
	b := figureByID(t, r, "fig5b")
	for _, f := range []Figure{a, b} {
		if len(f.Series) != 5 {
			t.Fatalf("%s has %d series, want 5 (p values)", f.ID, len(f.Series))
		}
		// Queue length grows monotonically with load for every p.
		for _, sr := range f.Series {
			for i := 1; i < len(sr.Points); i++ {
				if sr.Points[i].Y < sr.Points[i-1].Y {
					t.Errorf("%s %s: queue length not monotone at %v", f.ID, sr.Label, sr.Points[i].X)
				}
			}
		}
	}
	// Saturation hits the high-ACF workload at far lower utilization: find
	// the first utilization where the p=0 queue exceeds 10.
	knee := func(f Figure) float64 {
		sr := seriesByLabel(t, f, "p=0.0")
		for _, pt := range sr.Points {
			if pt.Y > 10 {
				return pt.X
			}
		}
		return 1
	}
	if ka, kb := knee(a), knee(b); ka >= kb {
		t.Errorf("saturation knees: E-mail %v must come before Soft.Dev %v", ka, kb)
	}
	// Background load barely moves the curves (paper: "nearly insensitive").
	base := seriesByLabel(t, a, "p=0.0")
	heavy := seriesByLabel(t, a, "p=0.9")
	atHigh := len(base.Points) - 1
	if rel := (heavy.Points[atHigh].Y - base.Points[atHigh].Y) / base.Points[atHigh].Y; rel > 0.05 {
		t.Errorf("p sensitivity at saturation = %v, want < 5%%", rel)
	}
}

func TestFigure6Shapes(t *testing.T) {
	s := NewSuite(Options{})
	r, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Figures {
		for _, sr := range f.Series {
			if sr.Label == "p=0.0" {
				for _, pt := range sr.Points {
					if pt.Y != 0 {
						t.Errorf("%s: delayed fraction %v without BG work", f.ID, pt.Y)
					}
				}
				continue
			}
			var peak float64
			for _, pt := range sr.Points {
				if pt.Y < 0 || pt.Y > 0.5 {
					t.Errorf("%s %s: delayed fraction %v out of range", f.ID, sr.Label, pt.Y)
				}
				if pt.Y > peak {
					peak = pt.Y
				}
			}
			// Paper: beyond a point the affected portion drops dramatically.
			last := sr.Points[len(sr.Points)-1].Y
			if peak > 0.01 && last > 0.8*peak {
				t.Errorf("%s %s: no high-load drop (peak %v, last %v)", f.ID, sr.Label, peak, last)
			}
		}
	}
}

func TestFigure7Shapes(t *testing.T) {
	s := NewSuite(Options{})
	r, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	a := figureByID(t, r, "fig7a")
	b := figureByID(t, r, "fig7b")
	for _, f := range []Figure{a, b} {
		for _, sr := range f.Series {
			for i, pt := range sr.Points {
				if pt.Y < 0 || pt.Y > 1+1e-9 {
					t.Errorf("%s %s: completion rate %v outside [0,1]", f.ID, sr.Label, pt.Y)
				}
				if i > 0 && pt.Y > sr.Points[i-1].Y+1e-9 {
					t.Errorf("%s %s: completion rate rises with load at %v", f.ID, sr.Label, pt.X)
				}
			}
			if last := sr.Points[len(sr.Points)-1].Y; last > 0.05 {
				t.Errorf("%s %s: completion rate %v at saturation, want ~0", f.ID, sr.Label, last)
			}
		}
	}
	// Collapse happens sooner for the high-ACF workload: at 16% load E-mail
	// has already collapsed while Soft.Dev at 15% still completes most work.
	if ya, yb := yAt(t, seriesByLabel(t, a, "p=0.3"), 0.16), yAt(t, seriesByLabel(t, b, "p=0.3"), 0.15); ya > 0.1 || yb < 0.5 {
		t.Errorf("collapse ordering: E-mail@0.16 = %v (want < 0.1), Soft.Dev@0.15 = %v (want > 0.5)", ya, yb)
	}
}

func TestFigure8Shapes(t *testing.T) {
	s := NewSuite(Options{})
	r, err := s.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Figures {
		for _, sr := range f.Series {
			for _, pt := range sr.Points {
				if pt.Y < 0 || pt.Y > 5 {
					t.Errorf("%s %s: BG queue %v outside [0, buffer]", f.ID, sr.Label, pt.Y)
				}
			}
		}
	}
	// Paper: the LRD workload holds a smaller BG queue than the SRD one at
	// comparable loads, because more of its BG jobs are dropped.
	email := yAt(t, seriesByLabel(t, figureByID(t, r, "fig8a"), "p=0.9"), 0.16)
	soft := yAt(t, seriesByLabel(t, figureByID(t, r, "fig8b"), "p=0.9"), 0.15)
	if email >= soft {
		t.Errorf("BG queue ordering: E-mail %v must fall below Soft.Dev %v", email, soft)
	}
}

func TestFigure9And10IdleWaitTradeoff(t *testing.T) {
	s := NewSuite(Options{})
	r9, err := s.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	r10, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	// Longer idle wait: FG queue length falls, BG completion falls (paper
	// Sec. 5.3 trade-off), monotonically in the wait multiple.
	for _, f := range r9.Figures {
		for _, sr := range f.Series {
			for i := 1; i < len(sr.Points); i++ {
				if sr.Points[i].Y > sr.Points[i-1].Y+1e-12 {
					t.Errorf("%s %s: FG queue rises with idle wait at %v", f.ID, sr.Label, sr.Points[i].X)
				}
			}
		}
	}
	for _, f := range r10.Figures {
		for _, sr := range f.Series {
			for i := 1; i < len(sr.Points); i++ {
				if sr.Points[i].Y > sr.Points[i-1].Y+1e-12 {
					t.Errorf("%s %s: BG completion rises with idle wait at %v", f.ID, sr.Label, sr.Points[i].X)
				}
			}
		}
	}
	// The paper's argument for a small idle wait: going from wait 0.5× to 2×
	// costs far more BG completion (relatively) than it saves FG queueing.
	fgSeries := seriesByLabel(t, figureByID(t, r9, "fig9a"), "p=0.6")
	bgSeries := seriesByLabel(t, figureByID(t, r10, "fig10a"), "p=0.6")
	fgGain := (yAt(t, fgSeries, 0.5) - yAt(t, fgSeries, 2)) / yAt(t, fgSeries, 0.5)
	bgLoss := (yAt(t, bgSeries, 0.5) - yAt(t, bgSeries, 2)) / yAt(t, bgSeries, 0.5)
	if bgLoss < fgGain {
		t.Errorf("idle-wait trade-off inverted: FG gain %v vs BG loss %v", fgGain, bgLoss)
	}
}

func TestFigure11Crossover(t *testing.T) {
	r, err := NewSuite(Options{}).Figure11()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Sec. 5.4: the queue length reached under correlated arrivals at
	// ~20% load takes ~95% load under Poisson arrivals.
	corr := figureByID(t, r, "fig11-p3-corr")
	indep := figureByID(t, r, "fig11-p3-indep")
	high := seriesByLabel(t, corr, "High ACF")
	expo := seriesByLabel(t, indep, "Expo")
	if hq, eq := yAt(t, high, 0.20), yAt(t, expo, 0.90); hq < eq {
		t.Errorf("High ACF@0.20 = %v must exceed Expo@0.90 = %v", hq, eq)
	}
	// Orders of magnitude at matched utilization.
	if hq, eq := yAt(t, high, 0.20), yAt(t, expo, 0.20); hq < 100*eq {
		t.Errorf("High ACF@0.20 = %v not orders beyond Expo@0.20 = %v", hq, eq)
	}
	// Low ACF sits between High ACF and the renewal processes.
	low := seriesByLabel(t, corr, "Low ACF")
	if l, h := yAt(t, low, 0.20), yAt(t, high, 0.20); l >= h {
		t.Errorf("Low ACF@0.20 = %v not below High ACF %v", l, h)
	}
	// IPP (same CV, no correlation) stays close to the variability-driven
	// envelope — far below the correlated process at matched load.
	ipp := seriesByLabel(t, indep, "IPP")
	if i, h := yAt(t, ipp, 0.20), yAt(t, high, 0.20); i >= h/10 {
		t.Errorf("IPP@0.20 = %v not far below High ACF %v", i, h)
	}
}

func TestFigure12DependenceHurtsCompletion(t *testing.T) {
	r, err := NewSuite(Options{}).Figure12()
	if err != nil {
		t.Fatal(err)
	}
	corr := figureByID(t, r, "fig12-p9-corr")
	indep := figureByID(t, r, "fig12-p9-indep")
	high := yAt(t, seriesByLabel(t, corr, "High ACF"), 0.20)
	expo := yAt(t, seriesByLabel(t, indep, "Expo"), 0.20)
	if high >= expo {
		t.Errorf("CompBG@0.20: High ACF %v must fall below Expo %v", high, expo)
	}
	if expo-high < 0.3 {
		t.Errorf("CompBG gap %v at 20%% load, want the paper's dramatic difference", expo-high)
	}
}

func TestFigure13PeakOrdering(t *testing.T) {
	r, err := NewSuite(Options{}).Figure13()
	if err != nil {
		t.Fatal(err)
	}
	peakX := func(s Series) float64 {
		best, bestX := -1.0, 0.0
		for _, pt := range s.Points {
			if pt.Y > best {
				best, bestX = pt.Y, pt.X
			}
		}
		return bestX
	}
	corr := figureByID(t, r, "fig13-p9-corr")
	indep := figureByID(t, r, "fig13-p9-indep")
	if pc, pi := peakX(seriesByLabel(t, corr, "High ACF")), peakX(seriesByLabel(t, indep, "Expo")); pc >= pi {
		t.Errorf("worst-impact region reached at %v (High ACF) vs %v (Expo); paper says sooner under correlation", pc, pi)
	}
}

func TestValidationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	r, err := NewSuite(Options{MeasureTime: 5e6, Seed: 2}).Validation()
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	if len(tbl.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(tbl.Rows))
	}
	// The Poisson rows must agree tightly even with a short window.
	for _, row := range tbl.Rows {
		if row[0] != "Expo" {
			continue
		}
		ana, _ := strconv.ParseFloat(row[3], 64)
		simv, _ := strconv.ParseFloat(row[4], 64)
		if math.Abs(ana-simv) > 0.15*ana {
			t.Errorf("Expo row disagrees: analytic %v vs sim %v", ana, simv)
		}
	}
}

func TestAblationTables(t *testing.T) {
	r, err := NewSuite(Options{}).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(r.Tables))
	}
	policy := r.Tables[0]
	for _, row := range policy.Rows {
		compJob, _ := strconv.ParseFloat(row[3], 64)
		compPeriod, _ := strconv.ParseFloat(row[4], 64)
		if compPeriod < compJob-1e-9 {
			t.Errorf("p=%s: per-period completion %v below per-job %v", row[0], compPeriod, compJob)
		}
	}
	buffer := r.Tables[1]
	for _, row := range buffer.Rows {
		comp5, _ := strconv.ParseFloat(row[1], 64)
		comp25, _ := strconv.ParseFloat(row[2], 64)
		if comp25 < comp5-1e-9 {
			t.Errorf("util %s: X=25 completion %v below X=5 %v", row[0], comp25, comp5)
		}
	}
	// Service ablation: FG queue length must grow with service variability.
	service := r.Tables[2]
	if len(service.Rows) != 3 {
		t.Fatalf("service ablation has %d rows, want 3", len(service.Rows))
	}
	prev := -1.0
	for _, row := range service.Rows {
		qlen, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad qlen cell %q", row[2])
		}
		if qlen <= prev {
			t.Errorf("service scv %s: qlenFG %v not above previous %v", row[1], qlen, prev)
		}
		prev = qlen
	}
}

func TestExtensionTable(t *testing.T) {
	r, err := NewSuite(Options{}).Extension()
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	if len(tbl.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		comp1, _ := strconv.ParseFloat(row[2], 64)
		comp2, _ := strconv.ParseFloat(row[3], 64)
		if comp1 < 0 || comp1 > 1 || comp2 < 0 || comp2 > 1 {
			t.Errorf("completion rates out of range: %v %v", comp1, comp2)
		}
		// At the balanced split, strict priority must favor class 1.
		if row[1] == "50/50" && comp1 < comp2 {
			t.Errorf("util %s: priority inverted (comp1 %v < comp2 %v)", row[0], comp1, comp2)
		}
	}
}

func TestBaselineTable(t *testing.T) {
	r, err := NewSuite(Options{}).Baseline()
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	if len(tbl.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		exact, err1 := strconv.ParseFloat(row[2], 64)
		vac, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad cells in row %v", row)
		}
		// The decomposition assumes BG work is always pending, so it can
		// only overstate the exact foreground wait.
		if vac < exact-1e-9 {
			t.Errorf("util %s p %s: vacation %v below exact %v", row[0], row[1], vac, exact)
		}
	}
	// The approximation must tighten as p grows (the buffer empties less):
	// compare overstatement at p=0.1 vs p=0.9 for util 0.5.
	gap := func(rowIdx int) float64 {
		e, _ := strconv.ParseFloat(tbl.Rows[rowIdx][2], 64)
		v, _ := strconv.ParseFloat(tbl.Rows[rowIdx][3], 64)
		return (v - e) / e
	}
	if gap(3) <= gap(5) { // rows: util .5 with p .1 at idx 3, p .9 at idx 5
		t.Errorf("vacation approximation should tighten with p: gap(p=.1)=%v gap(p=.9)=%v", gap(3), gap(5))
	}
}

func TestScalabilityTable(t *testing.T) {
	r, err := Scalability()
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	if len(tbl.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		ms, err := strconv.ParseFloat(row[3], 64)
		if err != nil || ms <= 0 {
			t.Errorf("bad timing cell %q", row[3])
		}
	}
}

func TestRegistry(t *testing.T) {
	gens := All(Options{})
	if len(gens) != 16 {
		t.Fatalf("registry has %d generators, want 16", len(gens))
	}
	seen := make(map[string]bool, len(gens))
	for _, g := range gens {
		if g.Name == "" || g.Paper == "" || g.Run == nil {
			t.Errorf("incomplete generator %+v", g)
		}
		if seen[g.Name] {
			t.Errorf("duplicate generator %q", g.Name)
		}
		seen[g.Name] = true
	}
	if _, ok := Lookup("5", Options{}); !ok {
		t.Error("Lookup(5) failed")
	}
	if _, ok := Lookup("nope", Options{}); ok {
		t.Error("Lookup(nope) succeeded")
	}
}
