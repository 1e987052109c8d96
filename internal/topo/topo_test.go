package topo

import (
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

func randomSinks(n int, seed int64) []ctree.Sink {
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Name: "s",
			Loc:  geom.Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000},
			Cap:  (1 + rng.Float64()) * 1e-15,
		}
	}
	return sinks
}

func TestBuildValidatesOverMethodsAndSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 64, 257} {
		tr, err := Build(randomSinks(n, int64(n)), geom.Point{X: 1000, Y: 1000})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: invalid tree: %v", n, err)
		}
		if tr.LeafCount() != n {
			t.Errorf("n=%d: leaf count %d", n, tr.LeafCount())
		}
		// A full binary tree over n leaves has exactly 2n−1 nodes, the
		// size Build presizes for.
		if len(tr.Nodes) != 2*n-1 || cap(tr.Nodes) != 2*n-1 {
			t.Errorf("n=%d: %d nodes (capacity %d), want 2n-1", n, len(tr.Nodes), cap(tr.Nodes))
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, geom.Point{}); err == nil {
		t.Error("empty sink set should error")
	}
}

func TestSingleSink(t *testing.T) {
	tr, err := Build(randomSinks(1, 3), geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 || tr.Nodes[tr.Root].SinkIdx != 0 {
		t.Errorf("single-sink tree should be one leaf: %+v", tr.Nodes)
	}
}

func TestBipartitionBalance(t *testing.T) {
	n := 256
	tr, err := Build(randomSinks(n, 7), geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(math.Log2(float64(n))))
	if d := tr.MaxDepth(); d != want {
		t.Errorf("bipartition depth = %d, want %d (perfectly balanced for 2^k sinks)", d, want)
	}
}

func TestGeometricLocality(t *testing.T) {
	// Sinks in two far-apart clusters: the root split must separate the
	// clusters (no cross-cluster merges below the root).
	var sinks []ctree.Sink
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 16; i++ {
		sinks = append(sinks, ctree.Sink{Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, Cap: 1e-15})
	}
	for i := 0; i < 16; i++ {
		sinks = append(sinks, ctree.Sink{Loc: geom.Point{X: 10000 + rng.Float64()*100, Y: rng.Float64() * 100}, Cap: 1e-15})
	}
	tr, err := Build(sinks, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	// Each child of the root must span sinks from exactly one cluster.
	for _, k := range tr.Nodes[tr.Root].Kids {
		if k == ctree.NoNode {
			continue
		}
		leftSeen, rightSeen := false, false
		collectSinks(tr, k, func(si int) {
			if sinks[si].Loc.X < 5000 {
				leftSeen = true
			} else {
				rightSeen = true
			}
		})
		if leftSeen && rightSeen {
			t.Error("root child mixes the two far clusters")
		}
	}
}

func collectSinks(tr *ctree.Tree, node int, fn func(sinkIdx int)) {
	stack := []int{node}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tr.Nodes[n].SinkIdx != ctree.NoSink {
			fn(tr.Nodes[n].SinkIdx)
		}
		for _, k := range tr.Nodes[n].Kids {
			if k != ctree.NoNode {
				stack = append(stack, k)
			}
		}
	}
}

func TestDuplicateSinkLocations(t *testing.T) {
	// Stacked sinks (same location) must still produce a valid tree.
	sinks := make([]ctree.Sink, 8)
	for i := range sinks {
		sinks[i] = ctree.Sink{Loc: geom.Point{X: 50, Y: 50}, Cap: 1e-15}
	}
	tr, err := Build(sinks, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollinearSinks(t *testing.T) {
	sinks := make([]ctree.Sink, 9)
	for i := range sinks {
		sinks[i] = ctree.Sink{Loc: geom.Point{X: float64(i) * 100, Y: 0}, Cap: 1e-15}
	}
	tr, err := Build(sinks, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBipartition4k(b *testing.B) {
	sinks := randomSinks(4096, 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sinks, geom.Point{}); err != nil {
			b.Fatal(err)
		}
	}
}
