package cts

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/dme"
	"smartndr/internal/geom"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/topo"
)

func randomSinks(n int, seed int64, spread float64) []ctree.Sink {
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Name: "ff",
			Loc:  geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread},
			Cap:  (1 + rng.Float64()*2) * 1e-15,
		}
	}
	return sinks
}

func TestBuildSmall(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	res, err := Build(randomSinks(8, 1, 100), geom.Point{X: 50, Y: 50}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Errorf("100 µm spread should be one cluster, got %d", res.NumClusters)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Tree.Nodes[res.Tree.Root].BufIdx == ctree.NoBuf {
		t.Error("root must carry the driver")
	}
}

func TestBuildMeetsConstraints(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	for _, tc := range []struct {
		n      int
		spread float64
		seed   int64
	}{
		{50, 800, 2},
		{200, 2000, 3},
		{500, 4000, 4},
		{1000, 6000, 5},
	} {
		res, err := Build(randomSinks(tc.n, tc.seed, tc.spread), geom.Point{X: tc.spread / 2, Y: tc.spread / 2}, te, lib, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		tr := res.Tree
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if err := tr.CheckEmbedding(1e-6); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		an, err := sta.Analyze(tr, te, lib, 40e-12)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if v := an.SlewViolations(te.MaxSlew); v > 0 {
			worst, at := an.WorstSlew()
			t.Errorf("n=%d spread=%g: %d slew violations (worst %.1f ps at node %d, limit %.1f ps)",
				tc.n, tc.spread, v, worst*1e12, at, te.MaxSlew*1e12)
		}
		// Construction skew (pre-repair): the model-mismatch residual must
		// stay well-bounded; the optimizer's skew-repair pass (package
		// core) brings it under te.MaxSkew.
		if skew := an.Skew(); skew > 2*te.MaxSkew {
			t.Errorf("n=%d spread=%g: construction skew %.2f ps over %.2f ps",
				tc.n, tc.spread, skew*1e12, 2*te.MaxSkew*1e12)
		}
		if an.BufferCount < 1 {
			t.Errorf("n=%d: no buffers", tc.n)
		}
	}
}

func TestBuildClusterCountScales(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	small, err := Build(randomSinks(100, 7, 1500), geom.Point{}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Build(randomSinks(400, 8, 3000), geom.Point{}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if large.NumClusters <= small.NumClusters {
		t.Errorf("4× sinks over 2× area should need more clusters: %d vs %d",
			large.NumClusters, small.NumClusters)
	}
}

func TestBuildStageCapsWithinBudget(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	res, err := Build(randomSinks(300, 9, 3500), geom.Point{X: 1750, Y: 1750}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.Analyze(res.Tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range an.Drivers {
		if c := an.StageCap[v]; c > 1.6*te.MaxCapPerStage {
			t.Errorf("stage at node %d: %.1f fF over budget %.1f fF",
				v, c*1e15, te.MaxCapPerStage*1e15)
		}
	}
}

// TestBuildBothTopologies checks construction skew on the builder's one
// topology, the bipartition.
func TestBuildBothTopologies(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	res, err := Build(randomSinks(150, 11, 2500), geom.Point{X: 1250, Y: 1250}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.Analyze(res.Tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if skew := an.Skew(); skew > 2*te.MaxSkew {
		t.Errorf("construction skew %.2f ps over bound", skew*1e12)
	}
}

func TestBuildTech65(t *testing.T) {
	te := tech.Tech65()
	lib := cell.Default65()
	res, err := Build(randomSinks(200, 13, 3000), geom.Point{X: 1500, Y: 1500}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.Analyze(res.Tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if v := an.SlewViolations(te.MaxSlew); v > 0 {
		t.Errorf("tech65: %d slew violations", v)
	}
	if skew := an.Skew(); skew > 2*te.MaxSkew {
		t.Errorf("tech65: construction skew %.2f ps over bound %.2f ps", skew*1e12, 2*te.MaxSkew*1e12)
	}
}

func TestBuildErrors(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	if _, err := Build(nil, geom.Point{}, te, lib, Options{}); err == nil {
		t.Error("empty sink set must fail")
	}
	badTech := tech.Tech45()
	badTech.Vdd = -1
	if _, err := Build(randomSinks(4, 1, 10), geom.Point{}, badTech, lib, Options{}); err == nil {
		t.Error("invalid tech must fail")
	}
}

func TestBuildSingleSink(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	res, err := Build(randomSinks(1, 17, 10), geom.Point{}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.Analyze(res.Tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if an.Skew() != 0 {
		t.Error("one sink has zero skew by definition")
	}
}

func TestBuildHugeSinkCapGetsOwnCluster(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	sinks := randomSinks(20, 19, 500)
	sinks[0].Cap = te.MaxCapPerStage // pathological macro pin
	res, err := Build(sinks, geom.Point{X: 250, Y: 250}, te, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 2 {
		t.Errorf("macro pin should force multiple clusters, got %d", res.NumClusters)
	}
}

// clusterizeRef is the reference leaf clustering: every candidate subset
// gets its own bipartition topology, DME embedding and cap sum, and a
// subset over budget is split at its median and both halves recursed.
func clusterizeRef(sinks []ctree.Sink, idx []int, budget float64, p dme.Params, out *[][]int) error {
	if len(idx) == 1 {
		*out = append(*out, idx)
		return nil
	}
	sub := make([]ctree.Sink, len(idx))
	for i, si := range idx {
		sub[i] = sinks[si]
	}
	tr, err := topo.Build(sub, geom.Point{})
	if err != nil {
		return err
	}
	if err := dme.Embed(tr, p); err != nil {
		return err
	}
	_, cap, err := dme.SubtreeDelay(tr, tr.Root, p)
	if err != nil {
		return err
	}
	if cap <= budget {
		*out = append(*out, idx)
		return nil
	}
	// Median split along the longer bounding-box axis.
	bb := geom.NewEmptyBBox()
	for _, si := range idx {
		bb.Extend(sinks[si].Loc)
	}
	byX := bb.Width() >= bb.Height()
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool {
		pa, pb := sinks[sorted[a]].Loc, sinks[sorted[b]].Loc
		if byX {
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			return pa.Y < pb.Y
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return pa.X < pb.X
	})
	mid := len(sorted) / 2
	if err := clusterizeRef(sinks, sorted[:mid], budget, p, out); err != nil {
		return err
	}
	return clusterizeRef(sinks, sorted[mid:], budget, p, out)
}

// oracleSinks returns seeded sink set i of the clustering oracle: the
// degenerate kinds of the construction golden and uniform sets of
// varying size and density, in rotation.
func oracleSinks(i int) []ctree.Sink {
	kinds := append(slices.Clone(degenerateKinds), "uniform", "uniform")
	kind, seed := kinds[i%len(kinds)], int64(100+i)
	if kind == "uniform" {
		return randomSinks(20+37*i, seed, 400+float64(90*i))
	}
	return degenerateSinks(kind, seed)
}

// TestClusterizeMatchesReference: on 50 seeded sink sets, clustering on
// the one shared bipartition returns exactly the reference's clusters, in
// its order, each listing its sinks in the reference's order; and every
// cluster's subtree holds exactly its members.
func TestClusterizeMatchesReference(t *testing.T) {
	for _, te := range []*tech.Tech{tech.Tech45(), tech.Tech65()} {
		blanket := te.Rule(te.BlanketRule)
		p := dme.Params{Model: dme.Elmore, RPerUm: te.Layer.RPerUm(blanket), CPerUm: te.Layer.CPerUm(blanket)}
		budget := clusterCapFrac * te.MaxCapPerStage
		for i := 0; i < 50; i++ {
			sinks := oracleSinks(i)
			name := fmt.Sprintf("%s/set%d(%d sinks)", te.Name, i, len(sinks))
			idx := make([]int, len(sinks))
			for j := range idx {
				idx[j] = j
			}
			var want [][]int
			if err := clusterizeRef(sinks, idx, budget, p, &want); err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			bp, err := newBipartition(sinks, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := bp.clusterize(budget)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d clusters, reference %d", name, len(got), len(want))
			}
			for c := range want {
				if !slices.Equal(got[c].members, want[c]) {
					t.Fatalf("%s: cluster %d is %v, reference %v", name, c, got[c].members, want[c])
				}
				var leaves []int
				var walk func(v int)
				walk = func(v int) {
					n := bp.tree.Nodes[v]
					if n.SinkIdx != ctree.NoSink {
						leaves = append(leaves, n.SinkIdx)
					}
					for _, k := range n.Kids {
						if k != ctree.NoNode {
							walk(k)
						}
					}
				}
				walk(got[c].root)
				slices.Sort(leaves)
				members := slices.Clone(want[c])
				slices.Sort(members)
				if !slices.Equal(leaves, members) {
					t.Fatalf("%s: cluster %d subtree holds sinks %v, members %v", name, c, leaves, members)
				}
			}
		}
	}
}

func BenchmarkBuild1k(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	sinks := randomSinks(1024, 29, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sinks, geom.Point{X: 2500, Y: 2500}, te, lib, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
