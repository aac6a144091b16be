// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 3 and 5) from the analytic model, plus two additions: an
// analytic-versus-simulation validation table and an ablation of the design
// choices the chain leaves open (idle-wait policy, BG buffer size).
//
// Each generator returns plain data (Figure / Table values); rendering to
// aligned text or CSV is separate so the cmd tools, benchmarks, and tests
// share one code path.
//
// Every generator but Scalability is a method of one Suite: each figure
// declares its curves and each table its grid, and the Suite fans the
// points out over a bounded worker pool (Options.Workers; 0 = all cores),
// solving each distinct model once per Suite. Results are always collected
// index-addressed, so every artifact is bit-identical across worker counts,
// and a Suite may be shared between goroutines.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced paper figure: one or more series over a shared
// x-axis.
type Figure struct {
	// ID names the artifact, e.g. "fig5a".
	ID string
	// Title describes the plot, including the workload.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the curves (one per parameter value or process).
	Series []Series
	// Notes records reproduction caveats (substitutions, scales).
	Notes string
}

// Table is a reproduced paper table (or one of our validation tables).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Result bundles the artifacts of one experiment.
type Result struct {
	Figures []Figure
	Tables  []Table
}

// fmtG renders a float compactly for text output.
func fmtG(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// WriteText renders the figure as an aligned text table: the x column
// followed by one column per series.
func (f Figure) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if f.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", f.Notes)
	}
	header := append([]string{f.XLabel}, labels(f.Series)...)
	rows := [][]string{}
	for i := range longestSeries(f.Series) {
		row := make([]string, 0, len(header))
		x := ""
		for _, s := range f.Series {
			if i < len(s.Points) {
				x = fmtG(s.Points[i].X)
				break
			}
		}
		row = append(row, x)
		for _, s := range f.Series {
			if i < len(s.Points) {
				row = append(row, fmtG(s.Points[i].Y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(&b, header, rows)
	fmt.Fprintf(&b, "(y axis: %s)\n\n", f.YLabel)
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the figure as CSV with an x column per series pair —
// series may have different x grids, so columns come in (x, y) pairs.
func (f Figure) WriteCSV(w io.Writer) error {
	var b strings.Builder
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%s:x,%s:y,", csvEscape(s.Label), csvEscape(s.Label))
	}
	b.WriteString("\n")
	for i := range longestSeries(f.Series) {
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%s,%s,", fmtG(s.Points[i].X), fmtG(s.Points[i].Y))
			} else {
				b.WriteString(",,")
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteText renders the table with aligned columns.
func (t Table) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	writeAligned(&b, t.Header, t.Rows)
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV.
func (t Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteText renders every artifact of the result.
func (r Result) WriteText(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	for _, f := range r.Figures {
		if err := f.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func longestSeries(series []Series) []struct{} {
	max := 0
	for _, s := range series {
		if len(s.Points) > max {
			max = len(s.Points)
		}
	}
	return make([]struct{}, max)
}

func writeAligned(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
}
