// Package obs provides structured, dependency-free instrumentation for
// the smartndr flow: hierarchical timing spans, named counters and
// gauges, and pluggable event sinks.
//
// The design goal is zero overhead when disabled: every method on
// *Tracer, *Span, and *Registry is safe on a nil receiver and returns
// immediately, so engine code can be threaded with tracing calls
// unconditionally and pay only a nil check when no tracer is attached.
// New returns nil for a nil (or no-op) sink, which makes the nil tracer
// the canonical disabled form:
//
//	tr := obs.New(nil)          // disabled — every call below is free
//	sp := tr.Start("optimize")  // nil span
//	sp.Set("passes", 3)         // no-op
//	sp.End()                    // no-op
//
// With a real sink, spans nest implicitly: Start on a tracer opens a
// child of the innermost open span (context-style plumbing without a
// context parameter), and End emits a SpanEvent carrying the full
// slash-joined path, wall-clock duration, and attributes:
//
//	tr := obs.New(obs.NewJSONL(f))
//	root := tr.Start("flow.apply", obs.S("scheme", "smart-ndr"))
//	... // nested Start/End calls inside the engine
//	root.End()
//	tr.Close() // flush metrics, close the sink
//
// Counters and gauges accumulate in the tracer's Registry and are
// emitted as a synthetic "metrics" span event on Close.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values should be strings,
// integers, or floats so every sink can render them.
type Attr struct {
	Key   string
	Value any
}

// S returns a string attribute.
func S(key, value string) Attr { return Attr{Key: key, Value: value} }

// I returns an integer attribute.
func I(key string, value int) Attr { return Attr{Key: key, Value: value} }

// F returns a float attribute.
func F(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Tracer owns a sink, a registry, and the stack of open spans. Create
// one with New; a nil *Tracer is the disabled tracer and every method
// no-ops on it.
type Tracer struct {
	mu     sync.Mutex
	sink   Sink
	start  time.Time
	stack  []*Span
	reg    *Registry
	scoped bool
}

// New returns a tracer emitting to the sink. A nil or no-op sink yields
// a nil tracer, the zero-overhead disabled form.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	if _, nop := sink.(nopSink); nop {
		return nil
	}
	return &Tracer{sink: sink, start: time.Now(), reg: &Registry{}}
}

// ScopedTee returns a request-scoped view of t (see Scoped) whose
// events are additionally delivered to extra — typically a per-request
// Collector, so a server can capture one request's span tree for
// post-hoc inspection while the shared sink still sees every event.
// extra is never closed by the tracer (Close on a scoped tracer is a
// no-op); the caller reads it after the request finishes. Nil-safe on
// both sides: a nil tracer yields nil, a nil extra degrades to Scoped.
func (t *Tracer) ScopedTee(extra Sink) *Tracer {
	if t == nil {
		return nil
	}
	if extra == nil {
		return t.Scoped()
	}
	return t.scope(teeSink{t.sink, extra})
}

// teeSink fans one scoped tracer's events to the shared sink and the
// per-request extra. Close is never called (scoped Close is a no-op).
type teeSink struct{ shared, extra Sink }

func (s teeSink) Emit(ev SpanEvent) {
	s.shared.Emit(ev)
	s.extra.Emit(ev)
}

func (s teeSink) Close() error { return s.shared.Close() }

// Scoped returns a request-scoped view of t: a tracer with its own
// ambient span stack that shares t's sink, registry, and time origin.
// The stack starts as a copy of t's open spans, so spans the view opens
// nest under whatever t had open at the call. This is the form a
// concurrent server hands to each request, and the form a fan-out hands
// to each worker: the implicit innermost-open-span nesting stays isolated
// per request or worker while events land in the shared sink (on the
// owner's timeline) and counters aggregate in the shared registry. A
// server tracer never holds an open span, so its requests start as roots.
// Close on a scoped tracer is a no-op: the owning tracer emits the
// metrics snapshot and closes the sink. Scoped on a nil tracer returns
// nil, so a disabled service tracer yields disabled request tracers for
// free.
func (t *Tracer) Scoped() *Tracer {
	if t == nil {
		return nil
	}
	return t.scope(t.sink)
}

// scope returns a scoped view of t emitting to sink, its stack a copy of
// t's open spans.
func (t *Tracer) scope(sink Sink) *Tracer {
	t.mu.Lock()
	stack := append([]*Span(nil), t.stack...)
	t.mu.Unlock()
	return &Tracer{sink: sink, start: t.start, stack: stack, reg: t.reg, scoped: true}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a span as a child of the innermost open span (or as a
// root span when none is open).
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, start: time.Now()}
	s.attrs = append(s.attrs, attrs...)
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		s.path = parent.path + "/" + name
		s.depth = parent.depth + 1
	} else {
		s.path = name
	}
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	return s
}

// Add increments a named counter in the tracer's registry.
func (t *Tracer) Add(name string, delta float64) {
	if t == nil {
		return
	}
	t.reg.Add(name, delta)
}

// Gauge sets a named gauge in the tracer's registry.
func (t *Tracer) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.reg.Set(name, v)
}

// Observe records one value into the named histogram in the tracer's
// registry (creating it with the default latency bounds). For latencies
// the unit is seconds.
func (t *Tracer) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.reg.Histogram(name).Observe(v)
}

// Registry returns the tracer's metric registry (nil for a nil tracer;
// Registry methods are nil-safe). Scoped tracers share their owner's
// registry.
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Close emits the registry snapshot as a synthetic "metrics" span event
// (so JSONL streams stay homogeneous) and closes the sink. Closing a
// scoped tracer is a no-op — the owner flushes the shared state.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if t.scoped {
		return nil
	}
	snap := t.reg.Snapshot()
	if len(snap) > 0 {
		attrs := make(map[string]any, len(snap))
		for k, v := range snap {
			attrs[k] = v
		}
		t.emit(SpanEvent{Span: "metrics", StartNS: time.Since(t.start).Nanoseconds(), Attrs: attrs})
	}
	return t.sink.Close()
}

func (t *Tracer) emit(ev SpanEvent) {
	t.mu.Lock()
	sink := t.sink
	t.mu.Unlock()
	sink.Emit(ev)
}

// Span is one timed region. Obtain spans from Tracer.Start; a nil *Span
// ignores every call.
type Span struct {
	tr    *Tracer
	name  string
	path  string
	depth int
	start time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Start opens a child span of s explicitly (regardless of the tracer's
// implicit innermost-open-span nesting).
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, path: s.path + "/" + name, depth: s.depth + 1, start: time.Now()}
	c.attrs = append(c.attrs, attrs...)
	t := s.tr
	t.mu.Lock()
	t.stack = append(t.stack, c)
	t.mu.Unlock()
	return c
}

// Child opens a child span of s without touching the tracer's ambient
// span stack. This is the form to use for concurrent children — e.g.
// Monte Carlo trials or parallel scheme evaluations fanned out across
// goroutines: every child's path nests under s regardless of what other
// goroutines open meanwhile, and later ambient Tracer.Start calls never
// accidentally nest under it. End emits the event as usual.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, path: s.path + "/" + name, depth: s.depth + 1, start: time.Now()}
	c.attrs = append(c.attrs, attrs...)
	return c
}

// Set attaches (or overwrites) an attribute.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span and emits its event. Idempotent; spans opened
// after this one that were never ended (error paths) are abandoned so
// the tracer's nesting stack stays consistent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := attrMap(s.attrs)
	s.mu.Unlock()

	t := s.tr
	t.mu.Lock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = t.stack[:i]
			break
		}
	}
	t.mu.Unlock()
	t.emit(SpanEvent{
		Span:    s.path,
		Depth:   s.depth,
		StartNS: s.start.Sub(t.start).Nanoseconds(),
		DurNS:   time.Since(s.start).Nanoseconds(),
		Attrs:   attrs,
	})
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// Registry holds named counters, gauges, and histograms. The zero
// value is ready to use; a nil *Registry ignores every call.
//
// Every name belongs to exactly one kind: the first registration
// claims it, and a later call of a different kind on the same name is
// dropped and recorded (Collisions). That makes Snapshot's merged
// counter/gauge map collision-free by construction — previously a
// counter and a gauge sharing a name silently merged with the gauge
// winning. The metricname analyzer keeps the namespace statically
// enumerable, so a collision is always a findable bug, never a silent
// misreading.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*Histogram
	kinds    map[string]metricKind
	collided map[string]bool
}

type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// claimLocked records name as kind, or detects the cross-kind
// collision and reports false (the caller drops the operation).
func (r *Registry) claimLocked(name string, kind metricKind) bool {
	if r.kinds == nil {
		r.kinds = make(map[string]metricKind)
	}
	if have, ok := r.kinds[name]; ok {
		if have == kind {
			return true
		}
		if r.collided == nil {
			r.collided = make(map[string]bool)
		}
		r.collided[name] = true
		return false
	}
	r.kinds[name] = kind
	return true
}

// Add increments counter name by delta (creating it at zero). If name
// is already a gauge or histogram, the call is dropped and the
// collision recorded.
func (r *Registry) Add(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.claimLocked(name, kindCounter) {
		if r.counters == nil {
			r.counters = make(map[string]float64)
		}
		r.counters[name] += delta
	}
	r.mu.Unlock()
}

// Set sets gauge name to v. If name is already a counter or histogram,
// the call is dropped and the collision recorded.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.claimLocked(name, kindGauge) {
		if r.gauges == nil {
			r.gauges = make(map[string]float64)
		}
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it with the default
// latency bounds on first use. Returns nil (whose methods all
// no-op) on a nil registry or when name is already a counter or gauge
// — the collision is recorded and the caller's Observe calls vanish
// rather than corrupting another metric.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.claimLocked(name, kindHistogram) {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(nil)
		if r.hists == nil {
			r.hists = make(map[string]*Histogram)
		}
		r.hists[name] = h
	}
	return h
}

// Collisions returns the sorted names that were registered under more
// than one metric kind — each is a bug to fix, not a state to tolerate.
func (r *Registry) Collisions() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.collided))
	for name := range r.collided {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Counter returns the current value of a counter.
func (r *Registry) Counter(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of the counter map.
func (r *Registry) Counters() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Gauges returns a copy of the gauge map.
func (r *Registry) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// Histograms returns a point-in-time snapshot of every histogram.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hists))
	for k, h := range hists {
		out[k] = h.Snapshot()
	}
	return out
}

// Snapshot returns all counters and gauges merged into one map.
// Histograms are excluded (they are not single numbers; see
// Histograms). The merge is collision-free: a name belongs to exactly
// one kind.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges))
	for k, v := range r.counters {
		out[k] = v
	}
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// Names returns the sorted metric names in the registry.
func (r *Registry) Names() []string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
