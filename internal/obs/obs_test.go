package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Start("a", I("k", 1))
	sp.Set(I("x", 2))
	child := sp.Start("b")
	child.End()
	sp.End()
	tr.Add("c", 1)
	tr.Gauge("g", 2)
	tr.Registry().Add("c", 1)
	if got := tr.Registry().Counter("c"); got != 0 {
		t.Errorf("nil registry counter = %g", got)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	// Attributes on disabled spans allocate nothing: floats, integers
	// over 255 and non-empty strings are boxed only when a live span
	// emits them.
	key, n, f := strings.Repeat("k", 3), 1000, 2.5
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("a", S("key", key), I("n", n), F("f", f))
		sp.Set(F("f", f+1))
		sp.Set(I("n", n+1))
		sp.Set(S("key", key))
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("attributes on a nil tracer's span allocate %v objects, want 0", allocs)
	}
}

func TestNewNopSinkDisables(t *testing.T) {
	if New(nil) != nil {
		t.Error("New(nil) should return nil tracer")
	}
	if New(Nop()) != nil {
		t.Error("New(Nop()) should return nil tracer")
	}
	if Multi(nil, Nop()) != nil {
		t.Error("Multi of nothing should collapse to nil")
	}
}

func TestSpanNestingAndEvents(t *testing.T) {
	c := NewCollector()
	tr := New(c)
	root := tr.Start("flow", S("scheme", "smart"))
	inner := tr.Start("optimize")
	leaf := inner.Start("pass", I("pass", 0))
	leaf.Set(I("downgrades", 7))
	leaf.End()
	inner.End()
	root.End()
	tr.Add("downgrades", 7)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	evs := c.Events()
	if len(evs) != 4 { // 3 spans + metrics
		t.Fatalf("events = %d, want 4", len(evs))
	}
	// Spans end innermost-first.
	if evs[0].Span != "flow/optimize/pass" || evs[0].Depth != 2 {
		t.Errorf("leaf event: %+v", evs[0])
	}
	if evs[0].Attrs["downgrades"] != 7 {
		t.Errorf("leaf attrs: %v", evs[0].Attrs)
	}
	if evs[1].Span != "flow/optimize" || evs[1].Depth != 1 {
		t.Errorf("inner event: %+v", evs[1])
	}
	if evs[2].Span != "flow" || evs[2].Depth != 0 {
		t.Errorf("root event: %+v", evs[2])
	}
	if evs[3].Span != "metrics" || evs[3].Attrs["downgrades"] != 7.0 {
		t.Errorf("metrics event: %+v", evs[3])
	}
	for _, ev := range evs[:3] {
		if ev.DurNS < 0 {
			t.Errorf("%s: negative duration", ev.Span)
		}
	}
	if evs[2].DurNS < evs[1].DurNS {
		t.Error("root shorter than child")
	}
}

func TestSpanEndIdempotentAndAbandonedChildren(t *testing.T) {
	c := NewCollector()
	tr := New(c)
	root := tr.Start("root")
	_ = root.Start("orphan") // never ended (simulates an error path)
	root.End()
	root.End() // idempotent
	next := tr.Start("next")
	next.End()
	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[1].Span != "next" || evs[1].Depth != 0 {
		t.Errorf("stack not healed after abandoned child: %+v", evs[1])
	}
}

func TestJSONLSinkLinesParse(t *testing.T) {
	var sb strings.Builder
	tr := New(NewJSONL(&sb))
	sp := tr.Start("sta.analyze", I("nodes", 42))
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Add("sta.calls", 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for i, ln := range lines {
		var ev struct {
			Span  string         `json:"span"`
			DurNS *int64         `json:"dur_ns"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		if ev.Span == "" {
			t.Errorf("line %d: empty span", i)
		}
	}
	var first SpanEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Span != "sta.analyze" || first.DurNS <= 0 || first.Attrs["nodes"] != 42.0 {
		t.Errorf("first event: %+v", first)
	}
}

func TestTreeSinkRenders(t *testing.T) {
	var sb strings.Builder
	tr := New(NewTree(&sb))
	root := tr.Start("build")
	child := tr.Start("cluster", I("clusters", 3))
	child.End()
	root.End()
	tr.Gauge("final_skew_ps", 12.5)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"build", "  cluster", "clusters=3", "metrics:", "final_skew_ps"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	// Parent line must come before child even though it ended later.
	if strings.Index(out, "build") > strings.Index(out, "cluster") {
		t.Errorf("parent not rendered first:\n%s", out)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	tr := New(Multi(a, b, Nop()))
	tr.Start("x").End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("fanout: a=%d b=%d", len(a.Events()), len(b.Events()))
	}
}

func TestRegistryConcurrent(t *testing.T) {
	tr := New(NewCollector())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Add("n", 1)
				sp := tr.Start("work")
				sp.Set(I("j", j))
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Registry().Counter("n"); got != 800 {
		t.Errorf("counter = %g, want 800", got)
	}
	names := tr.Registry().Names()
	if len(names) != 1 || names[0] != "n" {
		t.Errorf("names = %v", names)
	}
}

func TestSpanChildConcurrent(t *testing.T) {
	// Child spans bypass the ambient stack, so concurrent children of one
	// parent all nest correctly and never capture later ambient starts.
	col := NewCollector()
	tr := New(col)
	root := tr.Start("run")
	var wg sync.WaitGroup
	const trials = 50
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child("trial", I("trial", i))
			c.Set(I("ok", 1))
			c.End()
		}(i)
	}
	wg.Wait()
	// An ambient start while children existed must still nest under the
	// innermost *ambient* open span — the root, not any child.
	next := tr.Start("report")
	next.End()
	root.End()
	got := map[string]int{}
	for _, ev := range col.Events() {
		got[ev.Span]++
	}
	if got["run/trial"] != trials {
		t.Errorf("run/trial events = %d, want %d", got["run/trial"], trials)
	}
	if got["run/report"] != 1 {
		t.Errorf("run/report events = %d, want 1 (ambient nesting broken)", got["run/report"])
	}
	if got["run"] != 1 {
		t.Errorf("run events = %d, want 1", got["run"])
	}
}

func TestSpanChildNilSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	c.Set(I("k", 1))
	c.End() // all no-ops
	if c != nil {
		t.Error("nil span's Child must be nil")
	}
}

// TestScopedTracerIsolatesStacks: two scoped tracers nest independently
// (a request's spans never become children of another request's open
// span) while events land in the shared sink and counters in the shared
// registry.
func TestScopedTracerIsolatesStacks(t *testing.T) {
	col := NewCollector()
	owner := New(col)
	a := owner.Scoped()
	b := owner.Scoped()

	spA := a.Start("req", S("id", "a"))
	spB := b.Start("req", S("id", "b")) // must be a root, not a child of spA
	innerB := b.Start("work")
	innerB.End()
	spB.End()
	spA.End()
	a.Add("serve.requests", 1)
	b.Add("serve.requests", 1)

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(col.Events()); got != 3 {
		t.Fatalf("scoped Close must not flush metrics; events = %d", got)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	var metrics map[string]any
	for _, ev := range col.Events() {
		paths[ev.Span] = true
		if ev.Span == "metrics" {
			metrics = ev.Attrs
		}
	}
	for _, want := range []string{"req", "req/work"} {
		if !paths[want] {
			t.Errorf("span %q missing; got %v", want, paths)
		}
	}
	if paths["req/req"] || paths["req/req/work"] {
		t.Errorf("scoped stacks leaked across requests: %v", paths)
	}
	if metrics == nil || metrics["serve.requests"] != 2.0 {
		t.Errorf("shared registry snapshot wrong: %v", metrics)
	}
	if owner.Registry() != a.Registry() {
		t.Error("scoped tracer must share the owner's registry")
	}
}

// TestScopedTracerInheritsOpenSpans: a scoped view starts from the
// owner's open spans, so concurrent workers of a fan-out nest under the
// span that launched them and never under each other, and the owner's
// own stack is untouched by what the views open.
func TestScopedTracerInheritsOpenSpans(t *testing.T) {
	col := NewCollector()
	owner := New(col)
	exp := owner.Start("exp")
	a, b := owner.Scoped(), owner.Scoped()
	armA := a.Start("arm")
	armB := b.Start("arm") // a sibling of armA, not its child
	b.Start("optimize").End()
	owner.Start("render").End() // still a child of exp, not of an arm
	armB.End()
	armA.End()
	exp.End()
	var paths []string
	for _, ev := range col.Events() {
		paths = append(paths, ev.Span)
	}
	want := []string{"exp/arm/optimize", "exp/render", "exp/arm", "exp/arm", "exp"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("span paths = %v, want %v", paths, want)
	}
	if late := owner.Scoped(); late.Start("next").path != "next" {
		t.Error("a view taken after exp ended must start from an empty stack")
	}
}

func TestScopedNilTracer(t *testing.T) {
	var tr *Tracer
	sc := tr.Scoped()
	if sc != nil {
		t.Fatal("Scoped on nil must be nil")
	}
	sc.Start("x").End()
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}
