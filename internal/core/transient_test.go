package core

import (
	"math"
	"testing"

	"bgperf/internal/phtype"
)

func TestTransientStartsEmpty(t *testing.T) {
	cfg := poissonCfg(t, 0.5, 2, 0.5, 3, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.Transient(30, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	p0 := pts[0]
	if p0.ProbEmpty != 1 || p0.QLenFG != 0 || p0.QLenBG != 0 {
		t.Errorf("t=0 point = %+v, want empty system", p0)
	}
}

func TestTransientConvergesToStationary(t *testing.T) {
	cfg := poissonCfg(t, 0.5, 2, 0.6, 3, 1.5)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.Transient(60, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	late := pts[0]
	checks := []struct {
		name      string
		got, want float64
	}{
		{"QLenFG", late.QLenFG, st.QLenFG},
		{"QLenBG", late.QLenBG, st.QLenBG},
		{"UtilFG", late.UtilFG, st.UtilFG},
		{"UtilBG", late.UtilBG, st.UtilBG},
		{"ProbIdleWait", late.ProbIdleWait, st.ProbIdleWait},
		{"ProbEmpty", late.ProbEmpty, st.ProbEmpty},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("%s: transient(200) %v vs stationary %v", c.name, c.got, c.want)
		}
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	// From an empty start the expected FG population grows toward its
	// stationary value (for these light loads; no overshoot pathologies).
	cfg := poissonCfg(t, 0.4, 2, 0.3, 2, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.5, 1, 2, 4, 8, 16, 32}
	pts, err := m.Transient(40, times)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].QLenFG < pts[i-1].QLenFG-1e-9 {
			t.Errorf("QLenFG not monotone at t=%v: %v after %v", pts[i].Time, pts[i].QLenFG, pts[i-1].QLenFG)
		}
	}
}

func TestTransientValidation(t *testing.T) {
	cfg := poissonCfg(t, 0.5, 2, 0.5, 3, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transient(2, []float64{1}); err == nil {
		t.Error("truncation below the boundary accepted")
	}
	if _, err := m.Transient(20, []float64{-1}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestTransientWithMMPPPhases(t *testing.T) {
	// With a 2-phase MMPP the initial vector spreads over arrival phases;
	// mass must stay 1 and the server-state split must partition.
	cfg := mmppCfg(t, 0.3, 1.0/6, 0.5, 3, 1.0/6)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.Transient(25, []float64{0, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		total := pt.UtilFG + pt.UtilBG + pt.ProbIdleWait + pt.ProbEmpty
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("t=%v: server states sum to %v", pt.Time, total)
		}
	}
}

func TestTransientPHIdleStartsInArrivalMix(t *testing.T) {
	// Without BG work the idle-wait law cannot matter, so an Erlang idle
	// wait must reproduce the exponential one's trajectory: the initial
	// vector puts each arrival phase's mass on that phase's parked state.
	exp := mmppCfg(t, 0.4, 1.0/6, 0, 5, 1.0/6)
	erl := exp
	erl.IdleRate = 0
	var err error
	if erl.IdleWait, err = phtype.Erlang(2, 1.0/3); err != nil {
		t.Fatal(err)
	}
	times := []float64{50, 200, 1000}
	var pts [2][]TransientPoint
	for i, cfg := range []Config{exp, erl} {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pts[i], err = m.Transient(80, times); err != nil {
			t.Fatal(err)
		}
	}
	for k := range times {
		a, b := pts[0][k], pts[1][k]
		if math.Abs(a.QLenFG-b.QLenFG) > 1e-9*(1+a.QLenFG) || math.Abs(a.ProbEmpty-b.ProbEmpty) > 1e-9 {
			t.Errorf("t=%g: exponential idle %+v, Erlang idle %+v", times[k], a, b)
		}
	}
}
