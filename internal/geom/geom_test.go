package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{-1, -1}, Point{1, 1}, 4},
		{Point{2.5, 0}, Point{0, 2.5}, 5},
	}
	for _, c := range cases {
		if got := c.a.Dist(c.b); got != c.want {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Dist(c.a); got != c.want {
			t.Errorf("Dist symmetry broken: Dist(%v, %v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestPointArith(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := Midpoint(p, q); got != (Point{2, -1}) {
		t.Errorf("Midpoint = %v", got)
	}
}

func TestManhattanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clampCoord(ax), clampCoord(ay)}
		b := Point{clampCoord(bx), clampCoord(by)}
		c := Point{clampCoord(cx), clampCoord(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampCoord maps arbitrary float64 test inputs (possibly NaN/Inf/huge) into
// a sane chip-coordinate range so float rounding doesn't dominate.
func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestUVRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		p := Point{clampCoord(x), clampCoord(y)}
		q := ToXY(ToUV(p))
		return ApproxEq(p.X, q.X, 1e-6) && ApproxEq(p.Y, q.Y, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUVDistEqualsManhattan(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{clampCoord(ax), clampCoord(ay)}
		b := Point{clampCoord(bx), clampCoord(by)}
		return ApproxEq(ToUV(a).DistInf(ToUV(b)), a.Dist(b), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxBasics(t *testing.T) {
	bb := NewEmptyBBox()
	if !bb.Empty() {
		t.Fatal("fresh box should be empty")
	}
	if bb.Width() != 0 || bb.Height() != 0 {
		t.Error("empty box should report zero extents")
	}
	bb.Extend(Point{1, 2})
	if bb.Empty() {
		t.Fatal("box with one point should not be empty")
	}
	bb.Extend(Point{-3, 5})
	if bb.MinX != -3 || bb.MaxX != 1 || bb.MinY != 2 || bb.MaxY != 5 {
		t.Errorf("unexpected box %+v", bb)
	}
	if got := bb.Width(); got != 4 {
		t.Errorf("Width = %v", got)
	}
	if got := bb.Height(); got != 3 {
		t.Errorf("Height = %v", got)
	}
	if !bb.Contains(Point{0, 3}) {
		t.Error("Contains should include interior point")
	}
	if bb.Contains(Point{2, 3}) {
		t.Error("Contains should exclude exterior point")
	}
}

func TestBBoxExtendContainsProperty(t *testing.T) {
	f := func(xs [6]float64) bool {
		bb := NewEmptyBBox()
		var pts []Point
		for i := 0; i+1 < len(xs); i += 2 {
			p := Point{clampCoord(xs[i]), clampCoord(xs[i+1])}
			pts = append(pts, p)
			bb.Extend(p)
		}
		for _, p := range pts {
			if !bb.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}
