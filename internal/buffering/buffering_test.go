package buffering

import (
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/ctree"
	"smartndr/internal/dme"
	"smartndr/internal/geom"
	"smartndr/internal/tech"
	"smartndr/internal/topo"
)

func buildEmbedded(t testing.TB, n int, seed int64, spread float64) *ctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread},
			Cap: (1 + rng.Float64()*2) * 1e-15,
		}
	}
	tr, err := topo.Build(topo.Bipartition, sinks, geom.Point{X: spread / 2, Y: spread / 2})
	if err != nil {
		t.Fatal(err)
	}
	te := tech.Tech45()
	p := dme.Params{
		RPerUm: te.Layer.RPerUm(te.Rule(te.BlanketRule)),
		CPerUm: te.Layer.CPerUm(te.Rule(te.BlanketRule)),
	}
	if err := dme.Embed(tr, p); err != nil {
		t.Fatal(err)
	}
	tr.SetAllRules(te.BlanketRule)
	return tr
}

func TestSplitLongEdges(t *testing.T) {
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 1e-15},
		{Loc: geom.Point{X: 3000, Y: 0}, Cap: 1e-15},
	}
	tr, _ := topo.Build(topo.Bipartition, sinks, geom.Point{})
	te := tech.Tech45()
	if err := dme.Embed(tr, dme.Params{
		RPerUm: te.Layer.RPerUm(te.Rule(te.BlanketRule)),
		CPerUm: te.Layer.CPerUm(te.Rule(te.BlanketRule)),
	}); err != nil {
		t.Fatal(err)
	}
	wl := tr.TotalWirelength()
	nodesBefore := len(tr.Nodes)
	SplitLongEdges(tr, 200)
	if len(tr.Nodes) <= nodesBefore {
		t.Fatal("3 mm edges must be split at 200 µm")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckEmbedding(1e-6); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.TotalWirelength()-wl) > 1e-6*wl {
		t.Errorf("wirelength changed: %g → %g", wl, tr.TotalWirelength())
	}
	for i := range tr.Nodes {
		if tr.Nodes[i].Parent != ctree.NoNode && tr.Nodes[i].EdgeLen > 200+1e-9 {
			t.Errorf("edge %d still %g µm long", i, tr.Nodes[i].EdgeLen)
		}
	}
}

func TestSplitLongEdgesPreservesRules(t *testing.T) {
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 1e-15},
		{Loc: geom.Point{X: 1000, Y: 0}, Cap: 1e-15},
	}
	tr, _ := topo.Build(topo.Bipartition, sinks, geom.Point{})
	te := tech.Tech45()
	if err := dme.Embed(tr, dme.Params{RPerUm: 3, CPerUm: 0.2e-15}); err != nil {
		t.Fatal(err)
	}
	tr.SetAllRules(te.BlanketRule)
	SplitLongEdges(tr, 100)
	for i := range tr.Nodes {
		if tr.Nodes[i].Parent != ctree.NoNode && tr.Nodes[i].Rule != te.BlanketRule {
			t.Fatalf("split node %d lost its rule", i)
		}
	}
}

func TestSplitLongEdgesNoop(t *testing.T) {
	tr := buildEmbedded(t, 8, 6, 100)
	n := len(tr.Nodes)
	SplitLongEdges(tr, 1e9)
	if len(tr.Nodes) != n {
		t.Error("nothing should split under a huge limit")
	}
	SplitLongEdges(tr, 0) // guard: non-positive limit is a no-op
	if len(tr.Nodes) != n {
		t.Error("non-positive limit must be a no-op")
	}
}
