package route

import (
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/ctree"
	"smartndr/internal/dme"
	"smartndr/internal/geom"
	"smartndr/internal/topo"
)

func TestRealizeEdgeLShape(t *testing.T) {
	p, err := realizeEdge(geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 40}, 70, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pts) != 3 {
		t.Fatalf("L-shape should have 3 points, got %v", p.Pts)
	}
	if !geom.ApproxEq(p.Length, 70, 1e-9) {
		t.Errorf("Length = %g", p.Length)
	}
	if p.Bends != 1 {
		t.Errorf("Bends = %d, want 1", p.Bends)
	}
	if p.Snaked {
		t.Error("no surplus, no snake")
	}
}

func TestRealizeEdgeStraight(t *testing.T) {
	p, err := realizeEdge(geom.Point{X: 0, Y: 0}, geom.Point{X: 50, Y: 0}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pts) != 2 || p.Bends != 0 {
		t.Errorf("straight edge: %v bends=%d", p.Pts, p.Bends)
	}
}

func TestRealizeEdgeTooShortFails(t *testing.T) {
	if _, err := realizeEdge(geom.Point{}, geom.Point{X: 100, Y: 0}, 50, 1); err == nil {
		t.Error("electrical length below distance must fail")
	}
}

func TestSnakedLengthExact(t *testing.T) {
	cases := []struct {
		a, b geom.Point
		el   float64
	}{
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0}, 160},    // horizontal with surplus
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 80}, 120},     // vertical with surplus
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 60, Y: 40}, 150},    // L with surplus
		{geom.Point{X: 5, Y: 5}, geom.Point{X: 5, Y: 5}, 42},       // coincident, pure spur
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 0.5, Y: 0}, 300},    // tiny run, huge surplus
		{geom.Point{X: 10, Y: 10}, geom.Point{X: -30, Y: 10}, 100}, // leftward
		{geom.Point{X: 10, Y: 10}, geom.Point{X: 10, Y: -30}, 90},  // downward
	}
	for _, c := range cases {
		p, err := realizeEdge(c.a, c.b, c.el, 1)
		if err != nil {
			t.Fatalf("%v→%v el=%g: %v", c.a, c.b, c.el, err)
		}
		if !geom.ApproxEq(p.Length, c.el, 1e-6) {
			t.Errorf("%v→%v el=%g: realized %g", c.a, c.b, c.el, p.Length)
		}
		if !p.Snaked {
			t.Errorf("%v→%v el=%g: should be snaked", c.a, c.b, c.el)
		}
		if p.Pts[0] != c.a || p.Pts[len(p.Pts)-1].Dist(c.b) > 1e-9 {
			t.Errorf("%v→%v: endpoints %v…%v", c.a, c.b, p.Pts[0], p.Pts[len(p.Pts)-1])
		}
	}
}

func TestRealizeWholeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sinks := make([]ctree.Sink, 64)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000},
			Cap: (1 + rng.Float64()) * 1e-15,
		}
	}
	tr, err := topo.Build(sinks, geom.Point{X: 1000, Y: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := dme.Embed(tr, dme.Params{RPerUm: 3, CPerUm: 0.2e-15}); err != nil {
		t.Fatal(err)
	}
	paths, err := Realize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(tr.Nodes)-1 {
		t.Fatalf("got %d paths for %d edges", len(paths), len(tr.Nodes)-1)
	}
	var total float64
	for _, p := range paths {
		parent := tr.Nodes[p.Node].Parent
		if p.Pts[0].Dist(tr.Nodes[parent].Loc) > 1e-9 {
			t.Fatalf("path %d does not start at parent", p.Node)
		}
		if p.Pts[len(p.Pts)-1].Dist(tr.Nodes[p.Node].Loc) > 1e-9 {
			t.Fatalf("path %d does not end at node", p.Node)
		}
		if !geom.ApproxEq(p.Length, tr.Nodes[p.Node].EdgeLen, 1e-6) {
			t.Fatalf("path %d length %g != edge %g", p.Node, p.Length, tr.Nodes[p.Node].EdgeLen)
		}
		// Rectilinearity: consecutive points share x or y.
		for i := 1; i < len(p.Pts); i++ {
			if p.Pts[i].X != p.Pts[i-1].X && p.Pts[i].Y != p.Pts[i-1].Y {
				t.Fatalf("path %d has a diagonal segment", p.Node)
			}
		}
		total += p.Length
	}
	if !geom.ApproxEq(total, tr.TotalWirelength(), 1e-4) {
		t.Errorf("realized total %g != tree wirelength %g", total, tr.TotalWirelength())
	}
}

func TestRealizeRejectsCorruptTree(t *testing.T) {
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 1e-15},
		{Loc: geom.Point{X: 100, Y: 0}, Cap: 1e-15},
	}
	tr, _ := topo.Build(sinks, geom.Point{})
	if err := dme.Embed(tr, dme.Params{RPerUm: 3, CPerUm: 0.2e-15}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one electrical length below its geometric distance.
	for i := range tr.Nodes {
		if tr.Nodes[i].Parent != ctree.NoNode && tr.Nodes[i].EdgeLen > 10 {
			tr.Nodes[i].EdgeLen = 1e-9
			break
		}
	}
	if _, err := Realize(tr); err == nil {
		t.Error("corrupt tree should fail realization")
	}
}

func TestBendsNonNegativeAndSane(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		a := geom.Point{X: rng.Float64()*200 - 100, Y: rng.Float64()*200 - 100}
		b := geom.Point{X: rng.Float64()*200 - 100, Y: rng.Float64()*200 - 100}
		el := a.Dist(b) * (1 + rng.Float64())
		if el == 0 {
			continue
		}
		p, err := realizeEdge(a, b, el, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bends < 0 || p.Bends > len(p.Pts) {
			t.Fatalf("bends %d out of range for %d points", p.Bends, len(p.Pts))
		}
		if math.Abs(p.Length-el) > 1e-6 {
			t.Fatalf("length %g != %g", p.Length, el)
		}
	}
}
