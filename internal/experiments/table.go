// Package experiments implements the reproduction harness: one runner per
// paper claim in DESIGN.md's per-experiment index (T1, E1–E12, A1–A5). Each
// runner regenerates its claim and prints a paper-style table;
// cmd/aims-bench and the repository-root benchmarks are thin wrappers
// around these runners.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-width results table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are Sprint'ed.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1000 || x <= -1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10 || x <= -10:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
