package obs

import (
	"sort"
	"sync"
)

// SpanObserver is a sink-tee that aggregates completed span durations
// into one latency histogram per span path, then forwards the event to
// the wrapped sink (which may be nil for aggregate-only use). Because
// it keys on the full slash-joined path, every phase the engine already
// instruments — cts.build, core.optimize passes, sta splits, serve
// request handling — gets a latency distribution with no engine
// changes: attach the observer anywhere in the sink chain.
//
// Paths live in their own namespace (they contain '/'), separate from
// the flat pkg.snake_case registry names; /metricsz renders them as one
// metric family with a path label. The synthetic "metrics" event from
// Tracer.Close is skipped — it is a snapshot, not a timed region.
type SpanObserver struct {
	next   Sink
	bounds []float64

	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewSpanObserver returns an observer teeing into next (nil: aggregate
// only). Histograms use the default latency bounds.
func NewSpanObserver(next Sink) *SpanObserver {
	return &SpanObserver{next: next, bounds: defaultLatencyBounds, hists: map[string]*Histogram{}}
}

// Emit records the span's duration under its path and forwards the
// event to the wrapped sink.
func (o *SpanObserver) Emit(ev SpanEvent) {
	if !(ev.Span == "metrics" && ev.DurNS == 0) {
		o.mu.Lock()
		h := o.hists[ev.Span]
		if h == nil {
			h = NewHistogram(o.bounds)
			o.hists[ev.Span] = h
		}
		o.mu.Unlock()
		h.Observe(float64(ev.DurNS) / 1e9)
	}
	if o.next != nil {
		o.next.Emit(ev)
	}
}

// Close closes the wrapped sink. The aggregated histograms remain
// readable after Close.
func (o *SpanObserver) Close() error {
	if o.next != nil {
		return o.next.Close()
	}
	return nil
}

// Paths returns the sorted span paths observed so far. Safe on nil.
func (o *SpanObserver) Paths() []string {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	paths := make([]string, 0, len(o.hists))
	for p := range o.hists {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Histogram returns the histogram for one span path (nil if the path
// has not been observed). Safe on nil.
func (o *SpanObserver) Histogram(path string) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hists[path]
}

// Snapshot returns a point-in-time copy of every per-path histogram.
// Safe on nil (returns nil).
func (o *SpanObserver) Snapshot() map[string]HistogramSnapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	hists := make(map[string]*Histogram, len(o.hists))
	for p, h := range o.hists {
		hists[p] = h
	}
	o.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hists))
	for p, h := range hists {
		out[p] = h.Snapshot()
	}
	return out
}
