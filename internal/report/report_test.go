package report

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Schemes", "Scheme", "CLBs", "Time")
	tb.AddRow("Static", "15053", "0")
	tb.AddRowf("Modular", 6580, 244872)
	out := tb.String()
	if !strings.Contains(out, "Schemes") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	// Columns aligned: every data line has the same prefix width before
	// the second column.
	hdrIdx := strings.Index(lines[1], "CLBs")
	rowIdx := strings.Index(lines[3], "15053")
	if hdrIdx != rowIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hdrIdx, rowIdx, out)
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("x")               // short: pads
	tb.AddRow("x", "y", "extra") // long: truncates
	out := tb.String()
	if strings.Contains(out, "extra") {
		t.Error("extra cell not dropped")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "A", "B")
	tb.AddRow("plain", `with "quote", and comma`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "A,B\nplain,\"with \"\"quote\"\", and comma\"\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("pct", -10, 100, 10)
	if len(h.Counts) != 11 {
		t.Fatalf("bins = %d, want 11", len(h.Counts))
	}
	h.Add(-15) // below
	h.Add(-10) // first bin
	h.Add(0)
	h.Add(5)
	h.Add(99.9)
	h.Add(100) // above
	if h.Below != 1 || h.Above != 1 {
		t.Errorf("below/above = %d/%d", h.Below, h.Above)
	}
	if h.Counts[0] != 1 {
		t.Errorf("bin[-10,0) = %d, want 1", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Errorf("bin[0,10) = %d, want 2", h.Counts[1])
	}
	if h.Counts[10] != 1 {
		t.Errorf("bin[90,100) = %d, want 1", h.Counts[10])
	}
	if h.Total() != 6 {
		t.Errorf("total = %d, want 6", h.Total())
	}
	out := h.String()
	if !strings.Contains(out, "pct") || !strings.Contains(out, "#") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram("", 0, 1, 10) // width > range: single bin
	if len(h.Counts) != 1 {
		t.Fatalf("bins = %d, want 1", len(h.Counts))
	}
	h.Add(0.5)
	if h.Counts[0] != 1 {
		t.Error("sample lost in degenerate histogram")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("Fig7", "device", "proposed", "modular", "single")
	s.Add("LX20T", 100, 120, 300)
	s.Add("LX30", 200, 250, 700)
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig7", "device", "proposed", "LX30", "700"} {
		if !strings.Contains(out, want) {
			t.Errorf("series render missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "device,proposed,modular,single\n") {
		t.Errorf("CSV header wrong: %q", csv.String())
	}
}

func TestMarkdownTable(t *testing.T) {
	tb := NewTable("Schemes", "Scheme", "Total")
	tb.AddRow("Static", "0")
	tb.AddRow("with|pipe", "1")
	md := tb.Markdown()
	for _, want := range []string{
		"### Schemes",
		"| Scheme | Total |",
		"| --- | --- |",
		"| Static | 0 |",
		`| with\|pipe | 1 |`,
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestMarkdownSeries(t *testing.T) {
	s := NewSeries("Fig", "x", "a", "b")
	s.Add("p0", 1, 2)
	var b strings.Builder
	if err := s.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| p0 | 1 | 2 |") {
		t.Errorf("series markdown wrong:\n%s", b.String())
	}
}

// Markdown returns the Markdown rendering as a string.
func (t *Table) Markdown() string {
	var b strings.Builder
	_ = t.WriteMarkdown(&b)
	return b.String()
}

// WriteMarkdown renders the series as a Markdown table.
func (s *Series) WriteMarkdown(w io.Writer) error {
	t := NewTable(s.Title, append([]string{s.XLabel}, s.Names...)...)
	for i, lbl := range s.Labels {
		cells := make([]string, 0, len(s.Names)+1)
		cells = append(cells, lbl)
		for _, v := range s.Values[i] {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		t.AddRow(cells...)
	}
	return t.WriteMarkdown(w)
}

// Render writes the series as a table of values.
func (s *Series) Render(w io.Writer) error {
	t := NewTable(s.Title, append([]string{s.XLabel}, s.Names...)...)
	for i, lbl := range s.Labels {
		cells := make([]string, 0, len(s.Names)+1)
		cells = append(cells, lbl)
		for _, v := range s.Values[i] {
			cells = append(cells, fmt.Sprintf("%.0f", v))
		}
		t.AddRow(cells...)
	}
	return t.Render(w)
}

// String renders the histogram to a string.
func (h *Histogram) String() string {
	var b strings.Builder
	_ = h.Render(&b)
	return b.String()
}
