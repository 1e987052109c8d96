package obs

import (
	"sort"
	"sync"
)

// Histogram is a fixed-boundary, log-bucketed latency distribution:
// observations fall into the first bucket whose upper bound is >= the
// value (Prometheus "le" semantics), with one implicit overflow bucket
// above the last bound. Boundaries are fixed at construction, so two
// histograms fed the same observations are byte-identical in any
// rendering — the determinism contract the rest of the repo holds extends
// to telemetry.
//
// A nil *Histogram ignores every call, matching the nil-tracer
// convention: Registry.Histogram on a nil registry returns nil, and the
// whole chain stays free when telemetry is off.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds (inclusive)

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	sum    float64
	count  uint64
}

// defaultLatencyBounds is a 1-2-5 series per decade from 1µs to 50s,
// in seconds. 24 buckets cover everything from a cached STA pass to a
// full synthesis under load; durations beyond 50s land in overflow.
var defaultLatencyBounds = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	1e-1, 2e-1, 5e-1,
	1, 2, 5,
	10, 20, 50,
}

// NewHistogram returns a histogram over the given upper bounds, which
// must be strictly increasing and non-empty (nil selects the default
// latency bounds). Bounds are copied.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defaultLatencyBounds
	}
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value (for latencies: seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len() = overflow
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Snapshot returns a point-in-time copy. Safe on nil (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, one per bucket (overflow excluded)
	Counts []uint64  // len(Bounds)+1; last is the overflow bucket
	Sum    float64
	Count  uint64
}

// Quantile estimates the p-quantile (p in [0,1]) by linear
// interpolation inside the containing bucket, taking 0 as the lower
// edge of the first bucket. Values in the overflow bucket report the
// last bound — the histogram cannot resolve beyond it. Deterministic:
// the same snapshot always yields the same value. Returns 0 on an
// empty snapshot.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}
