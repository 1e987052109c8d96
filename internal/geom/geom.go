// Package geom provides the planar geometry substrate for clock-tree
// construction: Manhattan-metric points and boxes in chip (x, y) space, and
// the 45°-rotated (u, v) space in which Manhattan distance becomes Chebyshev
// (L∞) distance. The rotation is the classical trick behind the
// Deferred-Merge Embedding algorithm: tilted rectangular regions (TRRs) in
// chip space become axis-aligned rectangles in rotated space, so merging
// segments are computed with plain rectangle inflation and intersection.
//
// All coordinates are float64 microns.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in chip (x, y) space, in microns.
type Point struct {
	X, Y float64
}

// Dist returns the Manhattan (L1) distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k about the origin.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Midpoint returns the point halfway between p and q.
func Midpoint(p, q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// BBox is an axis-aligned bounding box in chip space. The zero value is an
// "empty" box that Extend can grow from, provided Empty() initialization via
// NewEmptyBBox is used.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewEmptyBBox returns a box that contains nothing; extending it with any
// point yields the degenerate box at that point.
func NewEmptyBBox() BBox {
	return BBox{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// Empty reports whether the box contains no points.
func (b BBox) Empty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Extend grows the box to include p.
func (b *BBox) Extend(p Point) {
	b.MinX = math.Min(b.MinX, p.X)
	b.MinY = math.Min(b.MinY, p.Y)
	b.MaxX = math.Max(b.MaxX, p.X)
	b.MaxY = math.Max(b.MaxY, p.Y)
}

// Contains reports whether p lies inside or on the boundary of the box.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Width returns the x extent of the box (0 for empty boxes).
func (b BBox) Width() float64 {
	if b.Empty() {
		return 0
	}
	return b.MaxX - b.MinX
}

// Height returns the y extent of the box (0 for empty boxes).
func (b BBox) Height() float64 {
	if b.Empty() {
		return 0
	}
	return b.MaxY - b.MinY
}

// UV is a location in rotated space: U = X+Y, V = X−Y. Manhattan distance in
// chip space equals Chebyshev (L∞) distance in UV space.
type UV struct {
	U, V float64
}

// ToUV rotates a chip-space point into UV space.
func ToUV(p Point) UV { return UV{U: p.X + p.Y, V: p.X - p.Y} }

// ToXY rotates a UV-space point back into chip space.
func ToXY(q UV) Point { return Point{X: (q.U + q.V) / 2, Y: (q.U - q.V) / 2} }

// DistInf returns the Chebyshev (L∞) distance between two UV points, which
// equals the Manhattan distance between the corresponding chip points.
func (q UV) DistInf(r UV) float64 {
	return math.Max(math.Abs(q.U-r.U), math.Abs(q.V-r.V))
}

// String implements fmt.Stringer.
func (q UV) String() string { return fmt.Sprintf("uv(%.3f, %.3f)", q.U, q.V) }

// Clamp restricts x into [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ApproxEq reports whether a and b differ by at most eps.
func ApproxEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
