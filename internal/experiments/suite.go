package experiments

import (
	"fmt"
	"sync"

	"bgperf/internal/core"
	"bgperf/internal/par"
)

// Suite generates the paper's artifacts from one table of solved models.
//
// Each analytic artifact declares the models it needs — a figure its
// curves, a table its grid — and the Suite fans them out over at most
// Options.Workers goroutines, solving each distinct model (by
// core.CacheKey) once per Suite: Fig. 10 reads Fig. 9's solves, Fig. 12
// and 13 read Fig. 11's, and Fig. 11's High-ACF curves read 20 of Fig. 5's
// points. Every solve reports to Options.Observer.
//
// A Suite is safe for concurrent use: each table entry is solved under its
// own sync.Once, so goroutines generating figures from one Suite share the
// solves instead of repeating them. Results are collected index-addressed,
// so every artifact is bit-identical across worker counts.
type Suite struct {
	opts Options

	mu     sync.Mutex
	solved map[string]*solved
}

// solved is one entry of a Suite's table: a model solved at most once.
type solved struct {
	once sync.Once
	sol  *core.Solution
	err  error
}

// NewSuite returns a Suite with an empty table; models are solved on first
// use.
func NewSuite(opts Options) *Suite {
	return &Suite{opts: opts.withDefaults(), solved: make(map[string]*solved)}
}

// point is one model an artifact needs, named for error messages.
type point struct {
	name string
	cfg  core.Config
}

// solveAll solves every point over at most Options.Workers goroutines and
// returns the solutions index-addressed.
func (s *Suite) solveAll(pts []point) ([]*core.Solution, error) {
	sols := make([]*core.Solution, len(pts))
	err := par.For(s.opts.Workers, len(pts), func(i int) error {
		sol, err := s.solve(pts[i].cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", pts[i].name, err)
		}
		sols[i] = sol
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sols, nil
}

// solve returns the solution of cfg, solving it on its key's first request
// only.
func (s *Suite) solve(cfg core.Config) (*core.Solution, error) {
	key, err := core.CacheKey(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	e, ok := s.solved[key]
	if !ok {
		e = new(solved)
		s.solved[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		model, err := core.NewModel(cfg)
		if err != nil {
			e.err = err
			return
		}
		e.sol, e.err = model.SolveObserved(s.opts.Observer)
	})
	return e.sol, e.err
}

// curve declares one series of a figure: its label and the model at each x.
type curve struct {
	label string
	xs    []float64
	model func(x float64) (core.Config, error)
}

// panel declares one figure: its frame (ID, title, axes, notes) and its
// curves.
type panel struct {
	Figure
	curves []curve
}

// figures solves every point of the declared panels and plots metric at
// each.
func (s *Suite) figures(metric func(core.Metrics) float64, panels []panel) (Result, error) {
	var pts []point
	for _, pn := range panels {
		for _, c := range pn.curves {
			for _, x := range c.xs {
				name := fmt.Sprintf("%s %s at x=%g", pn.ID, c.label, x)
				cfg, err := c.model(x)
				if err != nil {
					return Result{}, fmt.Errorf("experiments: %s: %w", name, err)
				}
				pts = append(pts, point{name, cfg})
			}
		}
	}
	sols, err := s.solveAll(pts)
	if err != nil {
		return Result{}, err
	}
	var res Result
	for _, pn := range panels {
		f := pn.Figure
		for _, c := range pn.curves {
			series := Series{Label: c.label, Points: make([]Point, len(c.xs))}
			for i, x := range c.xs {
				series.Points[i] = Point{X: x, Y: metric(sols[0].Metrics)}
				sols = sols[1:]
			}
			f.Series = append(f.Series, series)
		}
		res.Figures = append(res.Figures, f)
	}
	return res, nil
}
