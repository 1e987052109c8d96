package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// SpanEvent is the wire form of a finished span. The synthetic
// "metrics" event emitted by Tracer.Close uses the same shape with a
// zero duration and the registry snapshot as attributes, so every line
// of a JSONL stream parses identically.
type SpanEvent struct {
	Span    string         `json:"span"`     // slash-joined path, e.g. "flow.apply/optimize/pass"
	Depth   int            `json:"depth"`    // nesting depth (root = 0)
	StartNS int64          `json:"start_ns"` // offset from tracer creation
	DurNS   int64          `json:"dur_ns"`   // wall-clock duration
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Name returns the last segment of the span path.
func (ev SpanEvent) Name() string {
	if i := strings.LastIndexByte(ev.Span, '/'); i >= 0 {
		return ev.Span[i+1:]
	}
	return ev.Span
}

// Sink receives finished spans. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(SpanEvent)
	Close() error
}

// nopSink discards everything; New maps it to the nil tracer.
type nopSink struct{}

func (nopSink) Emit(SpanEvent) {}
func (nopSink) Close() error   { return nil }

// Nop returns the no-op sink. obs.New(obs.Nop()) returns a nil tracer,
// so a flow wired with it pays only nil checks.
func Nop() Sink { return nopSink{} }

// JSONL streams one JSON object per event to a writer (buffered; Close
// flushes but does not close the underlying writer).
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONL returns a JSON-lines sink over w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes the event as one JSON line.
func (s *JSONL) Emit(ev SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(ev) // Encode appends '\n'
}

// Close flushes the buffer.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bw.Flush()
}

// Collector retains every event in memory, for programmatic inspection
// and for rendering timing tables after a run.
type Collector struct {
	mu     sync.Mutex
	events []SpanEvent
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends the event.
func (c *Collector) Emit(ev SpanEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Close is a no-op.
func (c *Collector) Close() error { return nil }

// Events returns a copy of the collected events.
func (c *Collector) Events() []SpanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanEvent(nil), c.events...)
}

// Tree buffers events and renders a human-readable span tree to the
// writer on Close (spans end child-before-parent, so rendering must
// wait for the full set).
type Tree struct {
	w io.Writer
	c Collector
}

// NewTree returns a tree-rendering sink over w.
func NewTree(w io.Writer) *Tree { return &Tree{w: w} }

// Emit buffers the event.
func (s *Tree) Emit(ev SpanEvent) { s.c.Emit(ev) }

// Close renders the tree.
func (s *Tree) Close() error {
	return RenderTree(s.w, s.c.Events())
}

// RenderTree writes events as an indented tree in start-time order,
// one line per span: name, duration, and attributes. The synthetic
// "metrics" event renders as a trailing metrics block.
func RenderTree(w io.Writer, events []SpanEvent) error {
	evs := append([]SpanEvent(nil), events...)
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].StartNS != evs[b].StartNS {
			return evs[a].StartNS < evs[b].StartNS
		}
		return evs[a].Depth < evs[b].Depth
	})
	var b strings.Builder
	var metrics *SpanEvent
	for i := range evs {
		ev := &evs[i]
		if ev.Span == "metrics" && ev.DurNS == 0 {
			metrics = ev
			continue
		}
		fmt.Fprintf(&b, "%s%-*s %10.3fms%s\n",
			strings.Repeat("  ", ev.Depth), 32-2*ev.Depth, ev.Name(),
			float64(ev.DurNS)/1e6, renderAttrs(ev.Attrs))
	}
	if metrics != nil {
		b.WriteString("metrics:\n")
		for _, k := range sortedKeys(metrics.Attrs) {
			fmt.Fprintf(&b, "  %-32s %v\n", k, metrics.Attrs[k])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func renderAttrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, k := range sortedKeys(attrs) {
		fmt.Fprintf(&b, "  %s=%v", k, attrs[k])
	}
	return b.String()
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Multi fans events out to several sinks. Close closes each sink and
// returns the first error.
func Multi(sinks ...Sink) Sink {
	flat := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if _, nop := s.(nopSink); nop {
			continue
		}
		flat = append(flat, s)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return multiSink(flat)
}

type multiSink []Sink

func (m multiSink) Emit(ev SpanEvent) {
	for _, s := range m {
		s.Emit(ev)
	}
}

func (m multiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Setup builds the tracer a command's -trace and -timing flags ask for:
// a JSONL sink writing to traceFile when it is non-empty, an in-memory
// collector when timing is set (returned for rendering), or both. The
// returned closer closes the tracer, then the file.
func Setup(traceFile string, timing bool) (*Tracer, *Collector, func() error, error) {
	var sinks []Sink
	var f *os.File
	if traceFile != "" {
		var err error
		f, err = os.Create(traceFile)
		if err != nil {
			return nil, nil, nil, err
		}
		sinks = append(sinks, NewJSONL(f))
	}
	var col *Collector
	if timing {
		col = NewCollector()
		sinks = append(sinks, col)
	}
	tracer := New(Multi(sinks...))
	closer := func() error {
		err := tracer.Close()
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return tracer, col, closer, nil
}
