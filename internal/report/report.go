// Package report renders experiment output: aligned ASCII tables matching
// the paper's table layout, and CSV series for figure data.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&sb, row)
	}
	return sb.String()
}

// Series is numeric figure data: named columns over rows of float64.
type Series struct {
	Title   string
	Columns []string
	Rows    [][]float64
}

// AddRow appends one data point.
func (s *Series) AddRow(vals ...float64) {
	row := make([]float64, len(vals))
	copy(row, vals)
	s.Rows = append(s.Rows, row)
}

// CSV renders the series as comma-separated values.
func (s *Series) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, s.Columns)
	for _, row := range s.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmt.Sprintf("%g", v)
		}
		writeCSVRow(&sb, cells)
	}
	return sb.String()
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
}
