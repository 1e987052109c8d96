// Package buffering provides the repeater model behind the hierarchical
// builder in package cts: long-edge splitting (SplitLongEdges), NLDM
// linearization (Linearize) and repeated-line planning (PlanRepeatedLine).
//
// The builder plans one repeated line for the upper tree, balances its
// merges against the line's linear delay model, and then splits every
// upper edge at the planned spacing so that a repeater can sit at each
// split node; final timing always comes from the full NLDM tables.
package buffering

import (
	"math"
	"slices"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

// SplitLongEdges subdivides every edge longer than maxLen into equal
// segments joined by unary nodes placed along the straight line between
// the endpoints. Electrical lengths divide exactly, so total wirelength
// and downstream parasitics are unchanged.
func SplitLongEdges(t *ctree.Tree, maxLen float64) {
	if maxLen <= 0 {
		return
	}
	// Segment count must match the repeated-line model exactly:
	// n = ceil(e/maxLen), with a hair of tolerance so an edge of exactly
	// n·maxLen yields n segments, not n+1.
	segments := func(i int) int {
		if t.Nodes[i].Parent == ctree.NoNode {
			return 1
		}
		return int(math.Ceil(t.Nodes[i].EdgeLen/maxLen - 1e-12))
	}
	// Size the node slice once. Splitting edge i appends nodes past the
	// original ones and rewrites only node i and its parent's child slot,
	// so one pass in node order sees every original length unchanged.
	n, extra := len(t.Nodes), 0
	for i := 0; i < n; i++ {
		if segs := segments(i); segs >= 2 {
			extra += segs - 1
		}
	}
	t.Nodes = slices.Grow(t.Nodes, extra)
	for i := 0; i < n; i++ {
		splitEdge(t, i, segments(i))
	}
}

// splitEdge replaces the feeding edge of node v with a chain of `segs`
// equal segments through segs−1 new unary nodes.
func splitEdge(t *ctree.Tree, v, segs int) {
	if segs < 2 {
		return
	}
	p := t.Nodes[v].Parent
	total := t.Nodes[v].EdgeLen
	rule := t.Nodes[v].Rule
	a := t.Nodes[p].Loc
	b := t.Nodes[v].Loc
	segLen := total / float64(segs)
	prev := p
	for s := 1; s < segs; s++ {
		f := float64(s) / float64(segs)
		loc := geom.Point{X: a.X + (b.X-a.X)*f, Y: a.Y + (b.Y-a.Y)*f}
		id := t.AddNode(ctree.Node{
			Parent:  prev,
			Kids:    [2]int{ctree.NoNode, ctree.NoNode},
			SinkIdx: ctree.NoSink,
			Loc:     loc,
			EdgeLen: segLen,
			Rule:    rule,
			BufIdx:  ctree.NoBuf,
		})
		// Rewire the previous node's child pointer.
		if prev == p {
			for ki, k := range t.Nodes[p].Kids {
				if k == v {
					t.Nodes[p].Kids[ki] = id
					break
				}
			}
		} else {
			t.Nodes[prev].Kids[0] = id
		}
		prev = id
	}
	t.Nodes[prev].Kids[0] = v
	if prev != p {
		// prev is a fresh unary node; make sure its second slot is empty
		// and point v at it.
		t.Nodes[prev].Kids[1] = ctree.NoNode
	}
	t.Nodes[v].Parent = prev
	t.Nodes[v].EdgeLen = segLen
}
