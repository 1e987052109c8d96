package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"

	"smartndr/internal/obs"
)

// TraceRecord is one finished request as /v1/tracez reports it: the
// operational envelope (endpoint, key, outcome, status, duration) plus
// the request's span tree when a tracer is attached.
type TraceRecord struct {
	Req      int64       `json:"req"`
	Endpoint string      `json:"endpoint"`
	Key      string      `json:"key,omitempty"`
	Outcome  string      `json:"outcome"`         // cold|hit|refused|error
	Cache    string      `json:"cache,omitempty"` // hit|miss|shared
	Status   int         `json:"status"`
	DurNS    int64       `json:"dur_ns"`
	Spans    []*SpanNode `json:"spans,omitempty"`
}

// SpanNode is one span in a request's tree, with children nested.
// start_ns is the offset from the first span of the request, so trees
// read as request-relative timelines.
type SpanNode struct {
	Span     string         `json:"span"` // full slash-joined path
	StartNS  int64          `json:"start_ns"`
	DurNS    int64          `json:"dur_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanNode    `json:"children,omitempty"`
}

// buildSpanTree nests one request's flat span events into trees. The
// events all come from one request-scoped tracer, so nesting is fully
// determined by start order, depth, and path prefix; concurrent
// Span.Child siblings (sweep arms) attach to the same parent.
func buildSpanTree(evs []obs.SpanEvent) []*SpanNode {
	if len(evs) == 0 {
		return nil
	}
	sorted := append([]obs.SpanEvent(nil), evs...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].StartNS != sorted[b].StartNS {
			return sorted[a].StartNS < sorted[b].StartNS
		}
		return sorted[a].Depth < sorted[b].Depth
	})
	base := sorted[0].StartNS
	var roots []*SpanNode
	lastAt := map[int]*SpanNode{} // most recent node per depth
	pathAt := map[int]string{}
	for _, ev := range sorted {
		n := &SpanNode{
			Span:    ev.Span,
			StartNS: ev.StartNS - base,
			DurNS:   ev.DurNS,
			Attrs:   ev.Attrs,
		}
		if p := lastAt[ev.Depth-1]; p != nil && ev.Depth > 0 &&
			strings.HasPrefix(ev.Span, pathAt[ev.Depth-1]+"/") {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
		lastAt[ev.Depth] = n
		pathAt[ev.Depth] = ev.Span
	}
	return roots
}

// TraceBuffer retains recent requests for /v1/tracez under a hard
// capacity bound: half the capacity always holds the slowest requests
// seen so far (a post-hoc outlier is inspectable even hours later),
// the other half is a ring of the most recent requests (the sampled
// tail — under load it represents a bounded recent window). Both sides
// store full span trees.
type TraceBuffer struct {
	mu      sync.Mutex
	nSlow   int
	nRecent int
	slow    []TraceRecord // sorted by DurNS descending, ties by arrival
	recent  []TraceRecord // ring
	next    int           // ring write index once full
	total   int64
}

// NewTraceBuffer returns a buffer bounded to capacity records total
// (minimum 2: one slowest slot, one recent slot).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity < 2 {
		capacity = 2
	}
	return &TraceBuffer{nSlow: capacity / 2, nRecent: capacity - capacity/2}
}

// Add records one finished request.
func (b *TraceBuffer) Add(rec TraceRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total++
	if len(b.recent) < b.nRecent {
		b.recent = append(b.recent, rec)
	} else {
		b.recent[b.next] = rec
		b.next = (b.next + 1) % b.nRecent
	}
	if len(b.slow) < b.nSlow {
		b.slow = append(b.slow, rec)
	} else if last := len(b.slow) - 1; rec.DurNS > b.slow[last].DurNS {
		b.slow[last] = rec
	} else {
		return
	}
	sort.SliceStable(b.slow, func(i, j int) bool { return b.slow[i].DurNS > b.slow[j].DurNS })
}

// TracezPage is the /v1/tracez response body.
type TracezPage struct {
	Capacity int           `json:"capacity"`
	Total    int64         `json:"total"`   // requests seen since start
	Slowest  []TraceRecord `json:"slowest"` // duration-descending
	Recent   []TraceRecord `json:"recent"`  // oldest → newest
}

// Snapshot returns the page: slowest requests plus the recent ring in
// arrival order.
func (b *TraceBuffer) Snapshot() TracezPage {
	b.mu.Lock()
	defer b.mu.Unlock()
	page := TracezPage{
		Capacity: b.nSlow + b.nRecent,
		Total:    b.total,
		Slowest:  append([]TraceRecord(nil), b.slow...),
	}
	if len(b.recent) < b.nRecent {
		page.Recent = append([]TraceRecord(nil), b.recent...)
	} else {
		page.Recent = make([]TraceRecord, 0, b.nRecent)
		for i := 0; i < b.nRecent; i++ {
			page.Recent = append(page.Recent, b.recent[(b.next+i)%b.nRecent])
		}
	}
	return page
}

// handleTracez serves GET /v1/tracez: the slowest and most recent
// request span trees. 404 when the buffer is disabled.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, nil, errMethod(r, http.MethodGet))
		return
	}
	if s.tracez == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorResponse{Error: "serve: tracez disabled (start with -tracez-capacity > 0)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.tracez.Snapshot())
}
