// Package report renders experiment results as aligned ASCII tables,
// text histograms and CSV files — the textual equivalents of the paper's
// tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.AddRow(row...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// WriteCSV writes the table as CSV (headers first). Cells containing
// commas or quotes are quoted.
func (t *Table) WriteCSV(w io.Writer) error {
	write := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// Histogram is a fixed-bin-width histogram over a numeric range, used for
// the paper's Fig. 9 percentage-improvement profiles.
type Histogram struct {
	Title    string
	Lo, Hi   float64 // inclusive low edge, exclusive high edge of the range
	BinWidth float64
	Counts   []int
	// Below and Above count samples outside [Lo, Hi).
	Below, Above int
}

// NewHistogram creates a histogram with bins of the given width spanning
// [lo, hi).
func NewHistogram(title string, lo, hi, width float64) *Histogram {
	n := int((hi - lo) / width)
	if n < 1 {
		n = 1
	}
	return &Histogram{Title: title, Lo: lo, Hi: hi, BinWidth: width, Counts: make([]int, n)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	switch {
	case v < h.Lo:
		h.Below++
	case v >= h.Hi:
		h.Above++
	default:
		i := int((v - h.Lo) / h.BinWidth)
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of recorded samples, including out-of-range.
func (h *Histogram) Total() int {
	n := h.Below + h.Above
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Render writes a text bar chart of the histogram to w.
func (h *Histogram) Render(w io.Writer) error {
	const maxBar = 50
	peak := 1
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	if h.Below > 0 {
		fmt.Fprintf(&b, "%9s < %-6.4g %4d\n", "", h.Lo, h.Below)
	}
	for i, c := range h.Counts {
		lo := h.Lo + float64(i)*h.BinWidth
		bar := strings.Repeat("#", c*maxBar/peak)
		fmt.Fprintf(&b, "[%6.4g, %6.4g) %4d %s\n", lo, lo+h.BinWidth, c, bar)
	}
	if h.Above > 0 {
		fmt.Fprintf(&b, "%8s >= %-6.4g %4d\n", "", h.Hi, h.Above)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series is a named sequence of y-values sharing an x-axis of labels,
// the textual stand-in for the line plots of Figs. 7-8.
type Series struct {
	Title  string
	XLabel string
	Labels []string // per-point x labels (e.g. device names)
	Names  []string // series names
	Values [][]float64
}

// NewSeries creates a series set with the given series names.
func NewSeries(title, xlabel string, names ...string) *Series {
	return &Series{Title: title, XLabel: xlabel, Names: names}
}

// Add appends one x-point with one value per series.
func (s *Series) Add(label string, values ...float64) {
	s.Labels = append(s.Labels, label)
	row := make([]float64, len(s.Names))
	copy(row, values)
	s.Values = append(s.Values, row)
}

// WriteCSV writes the series as CSV.
func (s *Series) WriteCSV(w io.Writer) error {
	t := NewTable(s.Title, append([]string{s.XLabel}, s.Names...)...)
	for i, lbl := range s.Labels {
		cells := make([]string, 0, len(s.Names)+1)
		cells = append(cells, lbl)
		for _, v := range s.Values[i] {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		t.AddRow(cells...)
	}
	return t.WriteCSV(w)
}
