// Package route realizes the abstract edges of an embedded clock tree as
// rectilinear polylines. Plain edges become L-shapes; edges whose
// electrical length exceeds their Manhattan distance (zero-skew wire
// snaking) get a serpentine detour that makes up exactly the surplus.
//
// The realized geometry feeds the SVG renderer in package viz. Timing and
// the routing-resource metrics (core.Metrics' LenByRule and TrackArea)
// need only the electrical lengths, which are already exact in the tree.
package route

import (
	"fmt"
	"math"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

// Path is the realized geometry of one tree edge (parent → node).
type Path struct {
	Node   int          // tree node whose feeding edge this is
	Pts    []geom.Point // polyline, first point at the parent, last at the node
	Length float64      // total polyline length, µm (== the edge's electrical length)
	Bends  int          // direction changes (each costs a via pair in a two-layer scheme)
	Snaked bool         // whether a serpentine detour was inserted
}

// Realize produces the polyline for every non-root edge of the tree.
// Results are ordered by node index.
func Realize(t *ctree.Tree) ([]Path, error) {
	var paths []Path
	for i := range t.Nodes {
		p := t.Nodes[i].Parent
		if p == ctree.NoNode {
			continue
		}
		path, err := realizeEdge(t.Nodes[p].Loc, t.Nodes[i].Loc, t.Nodes[i].EdgeLen, i)
		if err != nil {
			return nil, fmt.Errorf("route: edge %d→%d: %w", p, i, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// realizeEdge builds a single rectilinear path from a to b with total
// length exactly elecLen (≥ Manhattan distance, the DME invariant).
func realizeEdge(a, b geom.Point, elecLen float64, node int) (Path, error) {
	d := a.Dist(b)
	if elecLen < d-1e-6 {
		return Path{}, fmt.Errorf("electrical length %.6f below Manhattan distance %.6f", elecLen, d)
	}
	surplus := math.Max(0, elecLen-d)
	pts := []geom.Point{a}
	dx := b.X - a.X
	dy := b.Y - a.Y

	if surplus <= 1e-9 {
		// Plain L-shape: horizontal then vertical.
		if dx != 0 && dy != 0 {
			pts = append(pts, geom.Point{X: b.X, Y: a.Y})
		}
		if a != b {
			pts = append(pts, b)
		}
		return finishPath(node, pts, false), nil
	}

	// Serpentine detour: replace the start of the horizontal (or, if the
	// edge is vertical, the vertical) run with a U-bump of height
	// surplus/2. A degenerate zero-distance edge becomes a pure
	// out-and-back spur.
	h := surplus / 2
	switch {
	case dx != 0:
		sign := math.Copysign(1, dx)
		w := math.Min(math.Abs(dx), math.Max(1.0, math.Abs(dx)/2))
		// Bump over the first w microns of the horizontal run.
		pts = append(pts,
			geom.Point{X: a.X, Y: a.Y + h},
			geom.Point{X: a.X + sign*w, Y: a.Y + h},
			geom.Point{X: a.X + sign*w, Y: a.Y},
		)
		if math.Abs(dx) > w {
			pts = append(pts, geom.Point{X: b.X, Y: a.Y})
		}
		if dy != 0 {
			pts = append(pts, b)
		} else if pts[len(pts)-1] != b {
			pts = append(pts, b)
		}
	case dy != 0:
		sign := math.Copysign(1, dy)
		w := math.Min(math.Abs(dy), math.Max(1.0, math.Abs(dy)/2))
		pts = append(pts,
			geom.Point{X: a.X + h, Y: a.Y},
			geom.Point{X: a.X + h, Y: a.Y + sign*w},
			geom.Point{X: a.X, Y: a.Y + sign*w},
		)
		if math.Abs(dy) > w {
			pts = append(pts, b)
		} else if pts[len(pts)-1] != b {
			pts = append(pts, b)
		}
	default:
		// Coincident endpoints: pure spur out and back.
		pts = append(pts,
			geom.Point{X: a.X + h, Y: a.Y},
			b,
		)
	}
	return finishPath(node, pts, true), nil
}

func finishPath(node int, pts []geom.Point, snaked bool) Path {
	length := 0.0
	bends := 0
	for i := 1; i < len(pts); i++ {
		length += pts[i-1].Dist(pts[i])
		if i >= 2 && direction(pts[i-1], pts[i]) != direction(pts[i-2], pts[i-1]) {
			bends++
		}
	}
	return Path{Node: node, Pts: pts, Length: length, Bends: bends, Snaked: snaked}
}

// direction classifies a segment as horizontal (0) or vertical (1);
// degenerate segments count as horizontal.
func direction(a, b geom.Point) int {
	if a.X == b.X && a.Y != b.Y {
		return 1
	}
	return 0
}
