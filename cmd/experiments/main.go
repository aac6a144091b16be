// Command experiments regenerates the paper's tables and figures (and the
// repository's validation/ablation additions) as text or CSV.
//
// Usage:
//
//	experiments                      # every artifact, text, to stdout
//	experiments -figure 5            # just Fig. 5
//	experiments -figure validation   # analytic vs simulation table
//	experiments -format csv -outdir results/
//	experiments -list
//
// Artifact names: 1 2 5 6 7 8 9 10 11 12 13 validation ablation extension
// baseline scalability. Every artifact but scalability (which times
// individual solves) comes from one experiments.Suite, so a full run solves
// each distinct model once.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bgperf/internal/experiments"
	"bgperf/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// command is one parsed invocation.
type command struct {
	opts                             experiments.Options
	diag                             *obs.Diagnostics
	figure, format, outdir, diagPath string
	list                             bool
}

// parse reads the command line. Without -diag the options' Observer is an
// untyped nil, not a nil *obs.Diagnostics boxed in obs.Observer (which
// would be non-nil and put every solve on its timed path).
func parse(args []string) (command, error) {
	var c command
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.StringVar(&c.figure, "figure", "all", "artifact to generate (all | 1 | 2 | 5..13 | validation | ablation | extension | baseline | scalability)")
	fs.StringVar(&c.format, "format", "text", "output format (text | csv | gnuplot)")
	fs.StringVar(&c.outdir, "outdir", "", "write one file per artifact into this directory instead of stdout")
	fs.Int64Var(&c.opts.Seed, "seed", 1, "seed for stochastic experiments")
	fs.Float64Var(&c.opts.MeasureTime, "simtime", 2e8, "validation simulation window (ms)")
	fs.IntVar(&c.opts.Workers, "workers", 0, "max goroutines for the grid points (0 = all cores, 1 = serial); output is identical for every setting")
	fs.BoolVar(&c.list, "list", false, "list available artifacts and exit")
	fs.StringVar(&c.diagPath, "diag", "", "write a JSON diagnostics report (solver stage timings, convergence, workspace reuse) to this file")
	if err := fs.Parse(args); err != nil {
		return command{}, err
	}
	if c.format != "text" && c.format != "csv" && c.format != "gnuplot" {
		return command{}, fmt.Errorf("unknown format %q", c.format)
	}
	if c.opts.Workers < 0 {
		return command{}, fmt.Errorf("workers must be >= 0")
	}
	if c.diagPath != "" {
		c.diag = obs.NewDiagnostics()
		c.opts.Observer = c.diag
	}
	return c, nil
}

func run(args []string, out io.Writer) error {
	c, err := parse(args)
	if err != nil {
		return err
	}
	gens := experiments.All(c.opts)
	if c.list {
		for _, g := range gens {
			fmt.Fprintf(out, "%-12s %s\n", g.Name, g.Paper)
		}
		return nil
	}
	if c.figure != "all" {
		g, ok := experiments.Lookup(c.figure, c.opts)
		if !ok {
			return fmt.Errorf("unknown figure %q (try -list)", c.figure)
		}
		gens = []experiments.Generator{g}
	}
	for _, g := range gens {
		fmt.Fprintf(out, "generating %s (%s)\n", g.Name, g.Paper)
		res, err := g.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
		if err := emit(res, c.format, c.outdir, out); err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
	}
	return c.diag.WriteReport(c.diagPath, out)
}

// emit writes a result either to stdout or as per-artifact files.
func emit(res experiments.Result, format, outdir string, out io.Writer) error {
	tableRender := func(t experiments.Table) func(io.Writer) error {
		if format == "csv" {
			return t.WriteCSV
		}
		return t.WriteText // tables have no gnuplot form
	}
	figureRender := func(f experiments.Figure) func(io.Writer) error {
		switch format {
		case "csv":
			return f.WriteCSV
		case "gnuplot":
			return f.WriteGnuplot
		default:
			return f.WriteText
		}
	}
	if outdir == "" {
		for _, t := range res.Tables {
			if format != "text" {
				fmt.Fprintf(out, "# %s\n", t.ID)
			}
			if err := tableRender(t)(out); err != nil {
				return err
			}
		}
		for _, f := range res.Figures {
			if format != "text" {
				fmt.Fprintf(out, "# %s\n", f.ID)
			}
			if err := figureRender(f)(out); err != nil {
				return err
			}
		}
		return nil
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	ext := map[string]string{"text": ".txt", "csv": ".csv", "gnuplot": ".gp"}[format]
	write := func(id string, render func(io.Writer) error) error {
		path := filepath.Join(outdir, id+ext)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n", path)
		return nil
	}
	for _, t := range res.Tables {
		if err := write(t.ID, tableRender(t)); err != nil {
			return err
		}
	}
	for _, f := range res.Figures {
		if err := write(f.ID, figureRender(f)); err != nil {
			return err
		}
	}
	return nil
}
