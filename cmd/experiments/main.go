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
// Figure names: 1 2 5 6 7 8 9 10 11 12 13 validation ablation.
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		figure   = fs.String("figure", "all", "artifact to generate (all | 1 | 2 | 5..13 | validation | ablation)")
		format   = fs.String("format", "text", "output format (text | csv | gnuplot)")
		outdir   = fs.String("outdir", "", "write one file per artifact into this directory instead of stdout")
		seed     = fs.Int64("seed", 1, "seed for stochastic experiments")
		simTime  = fs.Float64("simtime", 2e8, "validation simulation window (ms)")
		workers  = fs.Int("workers", 0, "max goroutines for the sweep engine (0 = all cores, 1 = serial); output is identical for every setting")
		list     = fs.Bool("list", false, "list available artifacts and exit")
		diagPath = fs.String("diag", "", "write a JSON diagnostics report (solver stage timings, convergence, workspace reuse) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" && *format != "gnuplot" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0")
	}
	var diag *obs.Diagnostics
	if *diagPath != "" {
		diag = obs.NewDiagnostics()
	}
	opts := experiments.Options{
		Seed:       *seed,
		Workers:    *workers,
		Validation: experiments.ValidationOptions{MeasureTime: *simTime},
		Observer:   diag,
	}
	gens := experiments.All(opts)
	if *list {
		for _, g := range gens {
			fmt.Fprintf(out, "%-12s %s\n", g.Name, g.Paper)
		}
		return nil
	}
	if *figure != "all" {
		g, ok := experiments.Lookup(*figure, opts)
		if !ok {
			return fmt.Errorf("unknown figure %q (try -list)", *figure)
		}
		gens = []experiments.Generator{g}
	}
	for _, g := range gens {
		fmt.Fprintf(out, "generating %s (%s)\n", g.Name, g.Paper)
		res, err := g.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
		if err := emit(res, *format, *outdir, out); err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
	}
	return diag.WriteReport(*diagPath, out)
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
