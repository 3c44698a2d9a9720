package report

import (
	"fmt"
	"io"
	"strings"
)

// WriteMarkdown renders the table as a GitHub-flavoured Markdown table,
// with the title as a level-3 heading. Pipes in cells are escaped.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	esc := func(s string) string { return strings.ReplaceAll(s, "|", `\|`) }
	row := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" " + esc(c) + " |")
		}
		b.WriteByte('\n')
	}
	row(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
