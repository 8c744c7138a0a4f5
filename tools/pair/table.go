package main

import (
	"io"
	"strings"
	"unicode/utf8"
)

// table is a markdown table written through fixed column widths: every row
// is buffered, each column is as wide as its widest cell, and Render pads
// each cell to that width, so the file reads as aligned text as well as
// rendering as a table. Numeric columns are right-aligned.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

// Append adds a row; missing cells are empty and extra cells are dropped.
func (t *table) Append(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the header, the separator and the rows.
func (t *table) Render(w io.Writer) error {
	width := make([]int, len(t.header))
	right := make([]bool, len(t.header))
	for c, h := range t.header {
		width[c] = max(3, utf8.RuneCountInString(h))
		right[c] = len(t.rows) > 0
	}
	for _, row := range t.rows {
		for c, cell := range row {
			width[c] = max(width[c], utf8.RuneCountInString(cell))
			if cell != "" && !numeric(cell) {
				right[c] = false
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		b.WriteString("|")
		for c, cell := range cells {
			pad := strings.Repeat(" ", width[c]-utf8.RuneCountInString(cell))
			b.WriteString(" ")
			if right[c] {
				b.WriteString(pad + cell)
			} else {
				b.WriteString(cell + pad)
			}
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	line(t.header)
	b.WriteString("|")
	for c := range t.header {
		dashes := strings.Repeat("-", width[c])
		if right[c] {
			dashes = dashes[1:] + ":"
		}
		b.WriteString(" " + dashes + " |")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// numeric reports whether cell reads as a number: an optional sign, then
// digits with at most one point and an optional exponent, then an optional
// " %".
func numeric(cell string) bool {
	s := strings.TrimSuffix(cell, " %")
	s = strings.TrimLeft(s, "+-")
	if mant, exp, ok := strings.Cut(s, "e"); ok {
		if strings.Trim(strings.TrimLeft(exp, "+-"), "0123456789") != "" || exp == "" {
			return false
		}
		s = mant
	}
	if s == "" || strings.Count(s, ".") > 1 {
		return false
	}
	return strings.Trim(s, "0123456789.") == ""
}
