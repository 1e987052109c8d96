package cts

import (
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
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

func TestBuildBothTopologies(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	for _, m := range []topo.Method{topo.Bipartition, topo.NearestNeighbor} {
		res, err := Build(randomSinks(150, 11, 2500), geom.Point{X: 1250, Y: 1250}, te, lib, Options{Topology: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		an, err := sta.Analyze(res.Tree, te, lib, 40e-12)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if skew := an.Skew(); skew > 2*te.MaxSkew {
			t.Errorf("%v: construction skew %.2f ps over bound", m, skew*1e12)
		}
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
	if _, err := Build(randomSinks(4, 1, 10), geom.Point{}, te, lib, Options{ClusterCapFrac: 2}); err == nil {
		t.Error("cluster fraction > 1 must fail")
	}
	if _, err := Build(randomSinks(4, 1, 10), geom.Point{}, te, lib, Options{RefSlew: -1}); err == nil {
		t.Error("negative ref slew must fail")
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
