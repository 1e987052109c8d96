package topo

import (
	"sort"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

// Partition splits the sink set into regions of at most maxSinks sinks
// each, using the same recursive median bipartition as the Bipartition
// topology generator: every region is a contiguous cut of the geometric
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
	idx := make([]int, len(sinks))
	for i := range idx {
		idx[i] = i
	}
	if maxSinks <= 0 || len(sinks) <= maxSinks {
		return [][]int{idx}
	}
	var regions [][]int
	partBipart(sinks, idx, maxSinks, &regions)
	for _, r := range regions {
		sort.Ints(r)
	}
	return regions
}

// partBipart recursively halves idx at the median of the longer
// bounding-box axis until the piece fits maxSinks. The split rule matches
// bipart in topo.go (ties broken on the other coordinate) so partition
// boundaries coincide with topology merge boundaries.
func partBipart(sinks []ctree.Sink, idx []int, maxSinks int, out *[][]int) {
	if len(idx) <= maxSinks {
		region := make([]int, len(idx))
		copy(region, idx)
		*out = append(*out, region)
		return
	}
	bb := geom.NewEmptyBBox()
	for _, si := range idx {
		bb.Extend(sinks[si].Loc)
	}
	if bb.Width() >= bb.Height() {
		sort.Slice(idx, func(a, b int) bool {
			pa, pb := sinks[idx[a]].Loc, sinks[idx[b]].Loc
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return idx[a] < idx[b]
		})
	} else {
		sort.Slice(idx, func(a, b int) bool {
			pa, pb := sinks[idx[a]].Loc, sinks[idx[b]].Loc
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			return idx[a] < idx[b]
		})
	}
	mid := len(idx) / 2
	partBipart(sinks, idx[:mid], maxSinks, out)
	partBipart(sinks, idx[mid:], maxSinks, out)
}
