// Package topo generates the abstract binary topology of the clock tree:
// which sinks merge with which, bottom-up to a single root. The generator
// is top-down recursive geometric bipartition: split the sink set at the
// median of the longer bounding-box axis ("means and medians",
// Jackson–Srinivasan–Kuh), and merge the two halves. It produces balanced
// trees whose merge pairs are geometrically local at every level.
//
// The output trees carry topology only; internal node locations are
// provisional midpoints that the DME embedding replaces.
package topo

import (
	"fmt"
	"slices"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

// Build generates the bipartition topology over the sinks. It errors on
// an empty sink set.
func Build(sinks []ctree.Sink, src geom.Point) (*ctree.Tree, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("topo: no sinks")
	}
	t := ctree.NewTree(sinks, src)
	t.Nodes = make([]ctree.Node, 0, 2*len(sinks)-1)
	idx := make([]int, len(sinks))
	for i := range idx {
		idx[i] = i
	}
	t.Root = bipart(t, idx)
	return t, nil
}

// Split is the bipartition's median rule. It sorts idx in place along the
// longer side of its sinks' bounding box (x on a tie), ordering equal
// coordinates by the other one, and returns the median position: the
// merge's two subtrees are idx[:mid] and idx[mid:]. The sort is not
// stable, so coincident sinks land where the input order sends them.
func Split(sinks []ctree.Sink, idx []int) (mid int) {
	bb := geom.NewEmptyBBox()
	for _, si := range idx {
		bb.Extend(sinks[si].Loc)
	}
	byX := bb.Width() >= bb.Height()
	slices.SortFunc(idx, func(a, b int) int {
		pa, pb := sinks[a].Loc, sinks[b].Loc
		if !byX {
			pa.X, pa.Y, pb.X, pb.Y = pa.Y, pa.X, pb.Y, pb.X
		}
		if pa.X != pb.X {
			return less(pa.X, pb.X)
		}
		return less(pa.Y, pb.Y)
	})
	return len(idx) / 2
}

// less is negative exactly when a < b. The sort only asks whether a
// comparison is negative, so this is the rule's less-function; NaNs
// compare as not less.
func less(a, b float64) int {
	if a < b {
		return -1
	}
	return 1
}

func newLeaf(t *ctree.Tree, sinkIdx int) int {
	return t.AddNode(ctree.Node{
		Parent:  ctree.NoNode,
		Kids:    [2]int{ctree.NoNode, ctree.NoNode},
		SinkIdx: sinkIdx,
		Loc:     t.Sinks[sinkIdx].Loc,
		Rule:    0,
		BufIdx:  ctree.NoBuf,
	})
}

func newInternal(t *ctree.Tree, a, b int) int {
	id := t.AddNode(ctree.Node{
		Parent:  ctree.NoNode,
		Kids:    [2]int{a, b},
		SinkIdx: ctree.NoSink,
		Loc:     geom.Midpoint(t.Nodes[a].Loc, t.Nodes[b].Loc),
		Rule:    0,
		BufIdx:  ctree.NoBuf,
	})
	t.Nodes[a].Parent = id
	t.Nodes[b].Parent = id
	return id
}

// bipart builds the subtree over idx by recursive median splits.
func bipart(t *ctree.Tree, idx []int) int {
	if len(idx) == 1 {
		return newLeaf(t, idx[0])
	}
	mid := Split(t.Sinks, idx)
	left := bipart(t, idx[:mid])
	right := bipart(t, idx[mid:])
	return newInternal(t, left, right)
}
