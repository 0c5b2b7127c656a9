// Package report renders ASCII tables so the experiment harness prints
// output that mirrors the paper's tables row for row.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// New creates a table with the given title and column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRowStrings appends a pre-formatted row.
func (t *Table) AddRowStrings(cells ...string) { t.rows = append(t.rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}

	formatRow := func(row []string) string {
		var sb strings.Builder
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(sb.String(), " ")
	}

	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	fmt.Fprintln(w, formatRow(t.header))
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, formatRow(sep))
	for _, r := range t.rows {
		fmt.Fprintln(w, formatRow(r))
	}
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}
