package expt

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's report: a titled grid of result rows plus an
// overall agreement verdict.
type Table struct {
	ID     string // experiment id from DESIGN.md (E1..E11)
	Title  string // the paper result being checked
	Header []string
	Rows   [][]string
	OK     bool
	Notes  []string
}

// Add appends a row, stringifying the cells.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = formatDuration(v)
		case bool:
			if v {
				row[i] = "yes"
			} else {
				row[i] = "NO"
			}
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	verdict := "PASS"
	if !t.OK {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "== %s: %s [%s]\n", t.ID, t.Title, verdict)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table for
// EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var sb strings.Builder
	verdict := "PASS"
	if !t.OK {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "### %s — %s (%s)\n\n", t.ID, t.Title, verdict)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		sb.WriteString("\n*" + n + "*\n")
	}
	sb.WriteByte('\n')
	return sb.String()
}

// timed runs f and returns its duration.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
