package topo

import (
	"cmp"
	"math/bits"
	"slices"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

// Partition splits the sink set into regions of at most maxSinks sinks
// each, using the same recursive median bipartition as the topology
// generator (Build): every region is a contiguous cut of the geometric
// median splits, so regions are spatially compact and their union covers
// every sink exactly once.
//
// The returned regions are ordered by the recursion (left/bottom halves
// first), and sink indices within a region are sorted ascending. Both
// orders are deterministic functions of the sink coordinates alone, so
// Partition is safe to use in replayable, byte-identical flows.
//
// maxSinks <= 0 or maxSinks >= len(sinks) yields a single region holding
// every sink. An empty sink set yields no regions.
func Partition(sinks []ctree.Sink, maxSinks int) [][]int {
	if len(sinks) == 0 {
		return nil
	}
	if maxSinks <= 0 || len(sinks) <= maxSinks {
		idx := make([]int, len(sinks))
		for i := range idx {
			idx[i] = i
		}
		return [][]int{idx}
	}
	// Every level compares coordinates again; one contiguous copy keeps
	// the comparisons off the sink structs.
	pts := make([]located, len(sinks))
	for i := range sinks {
		pts[i] = located{sinks[i].Loc, i}
	}
	var regions [][]int
	partBipart(pts, maxSinks, &regions)
	return regions
}

// located is a sink's position and index.
type located struct {
	p geom.Point
	i int
}

// partBipart recursively halves pts at the median of the longer
// bounding-box axis until the piece fits maxSinks. The axis and the order
// match Split's, with the sink index as a final tie-break. That is a
// total order (cmp.Compare puts NaN first), so each half is one set of
// sinks whatever order pts is in, and selecting the lower half gives the
// regions a full sort would. Partition boundaries coincide with topology
// merge boundaries wherever no two sinks tie at a median.
func partBipart(pts []located, maxSinks int, out *[][]int) {
	if len(pts) <= maxSinks {
		region := make([]int, len(pts))
		for j := range pts {
			region[j] = pts[j].i
		}
		slices.Sort(region)
		*out = append(*out, region)
		return
	}
	bb := geom.NewEmptyBBox()
	for j := range pts {
		bb.Extend(pts[j].p)
	}
	mid := len(pts) / 2
	selectFunc(pts, mid, splitOrder(bb.Width() >= bb.Height()))
	partBipart(pts[:mid], maxSinks, out)
	partBipart(pts[mid:], maxSinks, out)
}

// splitOrder orders sinks along x (byX) or y, then along the other axis,
// then by index.
func splitOrder(byX bool) func(a, b located) int {
	return func(a, b located) int {
		pa, pb := a.p, b.p
		if !byX {
			pa.X, pa.Y, pb.X, pb.Y = pa.Y, pa.X, pb.Y, pb.X
		}
		if c := cmp.Compare(pa.X, pb.X); c != 0 {
			return c
		}
		if c := cmp.Compare(pa.Y, pb.Y); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	}
}

// selectSortBelow is the range length under which selection stops
// partitioning and sorts.
const selectSortBelow = 12

// selectFunc permutes s so that s[:k] holds the k smallest elements
// under cmp, a strict total order, and s[k:] the rest, each part in no
// particular order. It runs quickselect with a median-of-three pivot, in
// O(n) expected time. Once the range left is short, or after 2·log₂(n)
// partitioning rounds, it sorts that range instead, so hostile inputs
// cost O(n log n) at most.
func selectFunc[E any](s []E, k int, cmp func(a, b E) int) {
	lo, hi := 0, len(s)
	// Invariant: s[:lo] < s[lo:hi] < s[hi:] elementwise and lo <= k <= hi,
	// so the loop is done once k is at either end of the range.
	for rounds := 2 * bits.Len(uint(len(s))); lo < k && k < hi; rounds-- {
		if hi-lo < selectSortBelow || rounds == 0 {
			slices.SortFunc(s[lo:hi], cmp)
			return
		}
		p := lo + partitionMedian3(s[lo:hi], cmp)
		if p < k {
			lo = p + 1
		} else {
			hi = p
		}
	}
}

// partitionMedian3 partitions s (at least three elements) around the
// median of its first, middle and last elements and returns the pivot's
// final position: everything before it is smaller, everything after it
// larger.
func partitionMedian3[E any](s []E, cmp func(a, b E) int) int {
	m, last := len(s)/2, len(s)-1
	if cmp(s[m], s[0]) < 0 {
		s[0], s[m] = s[m], s[0]
	}
	if cmp(s[last], s[m]) < 0 {
		s[m], s[last] = s[last], s[m]
		if cmp(s[m], s[0]) < 0 {
			s[0], s[m] = s[m], s[0]
		}
	}
	s[m], s[last] = s[last], s[m]
	pivot := s[last]
	store := 0
	for i := 0; i < last; i++ {
		if cmp(s[i], pivot) < 0 {
			s[i], s[store] = s[store], s[i]
			store++
		}
	}
	s[store], s[last] = s[last], s[store]
	return store
}
