package report

import (
	"strings"
	"testing"

	"smartndr/internal/obs"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("T1: demo", "bench", "power", "skew")
	tb.AddRow("cns01", "1.234", "12.3")
	tb.AddRow("cns02", "10.5", "9.1")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + sep + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "T1: demo") {
		t.Error("title missing")
	}
	if !strings.Contains(lines[1], "bench") || !strings.Contains(lines[1], "skew") {
		t.Error("headers missing")
	}
	// Alignment: all rows same width.
	w := len(lines[1])
	for i := 2; i < len(lines); i++ {
		if len(lines[i]) != w {
			t.Errorf("row %d width %d, want %d:\n%s", i, len(lines[i]), w, out)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("no stray blank title line")
	}
}

func TestAddRowPads(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	tb.AddRow("x", "y", "z", "overflow")
	out := tb.String()
	if strings.Contains(out, "overflow") {
		t.Error("overflow cell should be dropped")
	}
}

func TestTimingTable(t *testing.T) {
	// A root span (0–10 ms) holding two "pass" calls (3 ms + 2 ms) plus
	// the synthetic metrics event, delivered innermost-first as a real
	// tracer would.
	events := []obs.SpanEvent{
		{Span: "run/pass", Depth: 1, StartNS: 1e6, DurNS: 3e6},
		{Span: "run/pass", Depth: 1, StartNS: 5e6, DurNS: 2e6},
		{Span: "run", Depth: 0, StartNS: 0, DurNS: 10e6},
		{Span: "metrics", Depth: 0, StartNS: 10e6, DurNS: 0},
	}
	out := TimingTable("phases", events).String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title + header + sep + run + pass + wall clock
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if strings.Contains(out, "metrics") {
		t.Errorf("synthetic metrics event must be skipped:\n%s", out)
	}
	// Rows come out in start-time order: run before pass.
	runLine, passLine, wallLine := lines[3], lines[4], lines[5]
	if !strings.Contains(runLine, "run") || !strings.Contains(runLine, "10.000") ||
		!strings.Contains(runLine, "100.0%") {
		t.Errorf("run row wrong: %q", runLine)
	}
	// Two pass calls aggregate: 2 calls, 5 ms total, 2.5 ms mean, 50%.
	for _, want := range []string{"pass", "2", "5.000", "2.500", "50.0%"} {
		if !strings.Contains(passLine, want) {
			t.Errorf("pass row missing %q: %q", want, passLine)
		}
	}
	// Indented one level deeper than run.
	if strings.Index(passLine, "pass") <= strings.Index(runLine, "run") {
		t.Errorf("pass not indented under run:\n%s", out)
	}
	if !strings.Contains(wallLine, "wall clock") || !strings.Contains(wallLine, "10.000") {
		t.Errorf("wall-clock row wrong: %q", wallLine)
	}
}

func TestTimingTableEmpty(t *testing.T) {
	out := TimingTable("empty", nil).String()
	if strings.Contains(out, "wall clock") {
		t.Errorf("no events should render no wall-clock row:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if Ps(12.34e-12) != "12.34" {
		t.Errorf("Ps = %s", Ps(12.34e-12))
	}
	if MW(0.0123) != "12.300" {
		t.Errorf("MW = %s", MW(0.0123))
	}
	if PF(5.5e-12) != "5.500" {
		t.Errorf("PF = %s", PF(5.5e-12))
	}
	if Um(123.4) != "123" {
		t.Errorf("Um = %s", Um(123.4))
	}
	if Pct(-0.123) != "-12.3%" {
		t.Errorf("Pct = %s", Pct(-0.123))
	}
	if Pct(0.05) != "+5.0%" {
		t.Errorf("Pct = %s", Pct(0.05))
	}
}
