// Package report renders the experiment tables and series as aligned
// monospace text, the way the paper's tables read. It is deliberately
// dependency-free: rows are strings and floats formatted by the caller's
// chosen precision.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"smartndr/internal/obs"
)

// Table accumulates rows and renders with per-column alignment.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells, long rows
// are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Right-align numbers-ish columns; headers follow their column.
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders to a string (for tests and embedding in docs).
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// TimingTable renders collected span events as a phase-breakdown table:
// one row per distinct span path (indented by nesting depth, in
// start-time order) with call count, total and mean wall time, and the
// share of the run's wall clock. A final "wall clock" row holds the
// span between the first start and the last end, so top-level rows can
// be checked against it. The synthetic "metrics" event is skipped.
func TimingTable(title string, events []obs.SpanEvent) *Table {
	type agg struct {
		path    string
		depth   int
		calls   int
		totalNS int64
		firstNS int64
	}
	var (
		order    []*agg
		byPath         = map[string]*agg{}
		minStart int64 = 0
		maxEnd   int64 = 0
		seenAny        = false
	)
	evs := append([]obs.SpanEvent(nil), events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].StartNS < evs[b].StartNS })
	for _, ev := range evs {
		if ev.Span == "metrics" && ev.DurNS == 0 {
			continue
		}
		if !seenAny || ev.StartNS < minStart {
			minStart = ev.StartNS
		}
		if end := ev.StartNS + ev.DurNS; !seenAny || end > maxEnd {
			maxEnd = end
		}
		seenAny = true
		a := byPath[ev.Span]
		if a == nil {
			a = &agg{path: ev.Span, depth: ev.Depth, firstNS: ev.StartNS}
			byPath[ev.Span] = a
			order = append(order, a)
		}
		a.calls++
		a.totalNS += ev.DurNS
	}
	wallNS := maxEnd - minStart
	tb := NewTable(title, "phase", "calls", "total (ms)", "avg (ms)", "% wall")
	nameOf := func(a *agg) string {
		name := a.path
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		return strings.Repeat("  ", a.depth) + name
	}
	nameW := 0
	for _, a := range order {
		if n := len(nameOf(a)); n > nameW {
			nameW = n
		}
	}
	for _, a := range order {
		pct := "—"
		if wallNS > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(a.totalNS)/float64(wallNS))
		}
		// Left-pad-to-width keeps the tree indentation visible despite the
		// table's right alignment.
		tb.AddRow(fmt.Sprintf("%-*s", nameW, nameOf(a)),
			fmt.Sprintf("%d", a.calls),
			fmt.Sprintf("%.3f", float64(a.totalNS)/1e6),
			fmt.Sprintf("%.3f", float64(a.totalNS)/1e6/float64(a.calls)),
			pct)
	}
	if seenAny {
		tb.AddRow(fmt.Sprintf("%-*s", nameW, "wall clock"), "",
			fmt.Sprintf("%.3f", float64(wallNS)/1e6), "", "100.0%")
	}
	return tb
}

// Ps formats seconds as picoseconds with 2 decimals.
func Ps(s float64) string { return fmt.Sprintf("%.2f", s*1e12) }

// MW formats watts as milliwatts with 3 decimals.
func MW(w float64) string { return fmt.Sprintf("%.3f", w*1e3) }

// PF formats farads as picofarads with 3 decimals.
func PF(f float64) string { return fmt.Sprintf("%.3f", f*1e12) }

// Um formats microns with no decimals.
func Um(u float64) string { return fmt.Sprintf("%.0f", u) }

// Pct formats a ratio as a signed percentage with 1 decimal.
func Pct(x float64) string { return fmt.Sprintf("%+.1f%%", x*100) }
