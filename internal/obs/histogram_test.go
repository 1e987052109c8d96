package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// le semantics: a value exactly on a bound lands in that bound's
	// bucket; above the last bound lands in overflow.
	for _, v := range []float64{0, 0.5, 1} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(2)
	h.Observe(5)
	h.Observe(5.1)
	h.Observe(100)
	s := h.Snapshot()
	want := []uint64{3, 2, 1, 2}
	if len(s.Counts) != len(want) {
		t.Fatalf("counts len = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if got := s.Sum; math.Abs(got-115.1) > 1e-9 {
		t.Errorf("sum = %g, want 115.1", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// 10 observations uniformly in the first bucket, 10 in the second.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	s := h.Snapshot()
	// rank(0.5) = 10 → exactly exhausts bucket 0 → its upper bound.
	if got := s.Quantile(0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("p50 = %g, want 1", got)
	}
	// rank(0.75) = 15 → halfway through bucket (1,2].
	if got := s.Quantile(0.75); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("p75 = %g, want 1.5", got)
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("p0 = %g, want 0", got)
	}
	if got := s.Quantile(1); math.Abs(got-2) > 1e-12 {
		t.Errorf("p100 = %g, want 2", got)
	}
	// Overflow-only data reports the last bound — the histogram cannot
	// resolve beyond it.
	o := NewHistogram([]float64{1, 2, 4})
	o.Observe(100)
	if got := o.Snapshot().Quantile(0.99); got != 4 {
		t.Errorf("overflow p99 = %g, want 4", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil snapshot count = %d", s.Count)
	}
	var r *Registry
	r.Histogram("x").Observe(1) // whole chain must be free when disabled
	var tr *Tracer
	tr.Observe("x", 1)
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Errorf("count = %d, want 8000", s.Count)
	}
}

func TestRegistryKindCollisionDetected(t *testing.T) {
	r := &Registry{}
	r.Add("serve.requests", 2)
	r.Set("serve.requests", 99) // cross-kind: dropped, recorded
	r.Set("serve.depth", 7)
	r.Add("serve.depth", 1) // cross-kind: dropped, recorded
	if r.Histogram("serve.requests") != nil {
		t.Error("histogram on a counter name should return nil")
	}
	r.Histogram("serve.latency_seconds").Observe(1)
	r.Set("serve.latency_seconds", 1) // cross-kind on a histogram name

	snap := r.Snapshot()
	if got := snap["serve.requests"]; got != 2 {
		t.Errorf("counter survived as %g, want 2 (first registration wins)", got)
	}
	if got := snap["serve.depth"]; got != 7 {
		t.Errorf("gauge survived as %g, want 7", got)
	}
	want := []string{"serve.depth", "serve.latency_seconds", "serve.requests"}
	got := r.Collisions()
	if len(got) != len(want) {
		t.Fatalf("Collisions() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Collisions() = %v, want %v", got, want)
		}
	}
	// Same-kind re-registration is not a collision.
	clean := &Registry{}
	clean.Add("a.b", 1)
	clean.Add("a.b", 1)
	if len(clean.Collisions()) != 0 {
		t.Errorf("same-kind reuse flagged: %v", clean.Collisions())
	}
}

func TestSpanObserverAggregatesAndTees(t *testing.T) {
	col := NewCollector()
	o := NewSpanObserver(col)
	tr := New(o)
	root := tr.Start("flow.apply")
	inner := tr.Start("optimize")
	inner.End()
	root.End()
	tr.Add("core.downgrades", 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	paths := o.Paths()
	if len(paths) != 2 || paths[0] != "flow.apply" || paths[1] != "flow.apply/optimize" {
		t.Fatalf("paths = %v", paths)
	}
	if got := o.Histogram("flow.apply").Snapshot().Count; got != 1 {
		t.Errorf("flow.apply count = %d, want 1", got)
	}
	if _, ok := o.Snapshot()["metrics"]; ok {
		t.Error("synthetic metrics event was aggregated as a span")
	}
	// Tee forwarded everything, including the metrics event.
	if got := len(col.Events()); got != 3 {
		t.Errorf("teed events = %d, want 3", got)
	}
	var nilObs *SpanObserver
	if nilObs.Paths() != nil || nilObs.Snapshot() != nil || nilObs.Histogram("x") != nil {
		t.Error("nil SpanObserver accessors must return nil")
	}
}

func TestScopedTeeDeliversToBoth(t *testing.T) {
	shared := NewCollector()
	tr := New(shared)
	per := NewCollector()
	rtr := tr.ScopedTee(per)
	sp := rtr.Start("serve.flow")
	sp.Start("flow.apply").End()
	sp.End()
	if err := rtr.Close(); err != nil { // no-op: scoped
		t.Fatal(err)
	}
	if got := len(per.Events()); got != 2 {
		t.Errorf("per-request events = %d, want 2", got)
	}
	if got := len(shared.Events()); got != 2 {
		t.Errorf("shared events = %d, want 2", got)
	}
	var nilTr *Tracer
	if nilTr.ScopedTee(per) != nil {
		t.Error("ScopedTee on nil tracer must be nil")
	}
	if tr.ScopedTee(nil) == nil {
		t.Error("ScopedTee(nil) must degrade to Scoped, not nil")
	}
}

func TestWritePromTextDeterministic(t *testing.T) {
	build := func() PromSnapshot {
		r := &Registry{}
		r.Add("serve.cache_hits", 3)
		r.Add("serve.requests", 7)
		r.Set("core.final_skew_ps", 12.5)
		h := r.Histogram("serve.flow_cold_seconds")
		for _, v := range []float64{0.0004, 0.0015, 0.0015, 0.2} {
			h.Observe(v)
		}
		snap := r.PromSnapshot()
		snap.SpanHistograms = map[string]HistogramSnapshot{
			"serve.flow/flow.apply": h.Snapshot(),
		}
		return snap
	}
	var a, b bytes.Buffer
	if err := WritePromText(&a, "smartndr", build()); err != nil {
		t.Fatal(err)
	}
	if err := WritePromText(&b, "smartndr", build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical snapshots rendered differently")
	}
	text := a.String()
	for _, want := range []string{
		"# TYPE smartndr_serve_cache_hits_total counter\nsmartndr_serve_cache_hits_total 3\n",
		"# TYPE smartndr_core_final_skew_ps gauge\nsmartndr_core_final_skew_ps 12.5\n",
		`smartndr_serve_flow_cold_seconds_bucket{le="0.0005"} 1`,
		`smartndr_serve_flow_cold_seconds_bucket{le="0.002"} 3`,
		`smartndr_serve_flow_cold_seconds_bucket{le="+Inf"} 4`,
		"smartndr_serve_flow_cold_seconds_count 4",
		`smartndr_span_duration_seconds_bucket{path="serve.flow/flow.apply",le="+Inf"} 4`,
		`smartndr_span_duration_seconds_count{path="serve.flow/flow.apply"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, text)
		}
	}
	// Every non-comment line is "<series> <value>" with a valid name.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Errorf("malformed line %q", line)
		}
	}
}
