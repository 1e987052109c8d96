package sta_test

import (
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/sta"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/tech"
)

func synthTree(t testing.TB, n int, seed int64, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	t.Helper()
	return synthTreeOn(t, n, seed, 1500, te, lib)
}

// synthTreeOn builds a tree over n random sinks on a die×die µm die. Small
// dies give few, wide stages; large ones long repeater chains.
func synthTreeOn(t testing.TB, n int, seed int64, die float64, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * die, Y: rng.Float64() * die},
			Cap: (1 + rng.Float64()) * 1e-15,
		}
	}
	res, err := cts.Build(sinks, geom.Point{X: die / 2, Y: die / 2}, te, lib, cts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Tree
}

// TestAnalyzerMatchesAnalyze: repeated Full passes on one engine —
// including across different trees — must agree exactly with fresh
// one-shot Analyze.
func TestAnalyzerMatchesAnalyze(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	trees := []*ctree.Tree{
		synthTree(t, 60, 1, te, lib),
		synthTree(t, 100, 2, te, lib), // bigger: buffers must grow
		synthTree(t, 30, 3, te, lib),  // smaller: buffers must shrink cleanly
	}
	an := sta.NewIncremental(te, lib)
	for round := 0; round < 2; round++ {
		for ti, tree := range trees {
			want, err := sta.Analyze(tree, te, lib, 40e-12)
			if err != nil {
				t.Fatal(err)
			}
			got, err := an.Full(tree, 40e-12, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want.Arrival {
				if got.Arrival[v] != want.Arrival[v] || got.Slew[v] != want.Slew[v] {
					t.Fatalf("round %d tree %d node %d: reused engine diverges", round, ti, v)
				}
			}
			if got.Skew() != want.Skew() || got.TotalSwitchedCap() != want.TotalSwitchedCap() {
				t.Fatalf("round %d tree %d: summary diverges", round, ti)
			}
			if got.BufferCount != want.BufferCount || len(got.Drivers) != len(want.Drivers) {
				t.Fatalf("round %d tree %d: stale inventory: %d bufs / %d stages, want %d / %d",
					round, ti, got.BufferCount, len(got.Drivers), want.BufferCount, len(want.Drivers))
			}
			if got.MaxSinkArrival() != want.MaxSinkArrival() {
				t.Fatalf("round %d tree %d: sink set stale", round, ti)
			}
		}
	}
}

// scaledOverrides returns overrides that scale every edge's nominal
// parasitics by rf/cf and every buffer's delay by bf.
func scaledOverrides(tree *ctree.Tree, te *tech.Tech, rf, cf, bf float64) *sta.Overrides {
	n := len(tree.Nodes)
	ov := &sta.Overrides{EdgeR: make([]float64, n), EdgeC: make([]float64, n), BufScale: make([]float64, n)}
	for i := range tree.Nodes {
		nd := &tree.Nodes[i]
		if nd.Parent != ctree.NoNode {
			ov.EdgeR[i] = te.WireR(nd.EdgeLen, nd.Rule) * rf
			ov.EdgeC[i] = te.WireC(nd.EdgeLen, nd.Rule) * cf
		}
		ov.BufScale[i] = bf
	}
	return ov
}

// TestAnalyzerWithOverrides: the override path must behave identically
// on a reused engine and on a fresh one.
func TestAnalyzerWithOverrides(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 50, 4, te, lib)
	n := len(tree.Nodes)
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 1.1
	}
	ov := &sta.Overrides{BufScale: scale}
	want, err := sta.NewIncremental(te, lib).Full(tree, 40e-12, ov, nil)
	if err != nil {
		t.Fatal(err)
	}
	an := sta.NewIncremental(te, lib)
	// A nominal call first, so stale override state would be detectable.
	if _, err := an.Full(tree, 40e-12, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := an.Full(tree, 40e-12, ov, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxSinkArrival() != want.MaxSinkArrival() || got.Skew() != want.Skew() {
		t.Error("override analysis diverges on the reused engine")
	}
	if got.MaxSinkArrival() <= 0 {
		t.Error("implausible arrival")
	}
}

// TestFullOverridesDoNotLeakIntoAnalyze: a Full pass under overrides
// rewrites the engine's storage with the overridden parasitics, so the
// Analyze that follows on the same tree — with no edits reported — must
// not serve that state from cache.
func TestFullOverridesDoNotLeakIntoAnalyze(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 70, 7, te, lib)
	an := sta.NewIncremental(te, lib)
	if _, err := an.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	if _, err := an.Full(tree, 40e-12, scaledOverrides(tree, te, 1.3, 1.2, 1.1), nil); err != nil {
		t.Fatal(err)
	}
	got, err := an.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "after-override-full", tree, got, want)
}

// TestAnalyzerSteadyStateAllocs: after the first sizing call, repeated
// Full passes over the same tree must not allocate — nominal, and under
// overrides (the Monte Carlo trial path).
func TestAnalyzerSteadyStateAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 80, 5, te, lib)
	an := sta.NewIncremental(te, lib)
	for _, c := range []struct {
		name string
		ov   *sta.Overrides
	}{
		{"nominal", nil},
		{"overrides", scaledOverrides(tree, te, 1.05, 0.95, 1.02)},
	} {
		if _, err := an.Full(tree, 40e-12, c.ov, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := an.Full(tree, 40e-12, c.ov, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: steady-state Full allocates %.1f objects/run, want ≤ 2", c.name, allocs)
		}
	}
}

func TestAnalyzerErrors(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 20, 6, te, lib)
	an := sta.NewIncremental(te, lib)
	if _, err := an.Full(tree, 0, nil, nil); err == nil {
		t.Error("zero input slew must fail")
	}
	bad := tree.Clone()
	bad.Nodes[1].Rule = 99
	if _, err := an.Full(bad, 40e-12, nil, nil); err == nil {
		t.Error("out-of-range rule must fail")
	}
	badBuf := tree.Clone()
	badBuf.Nodes[badBuf.Root].BufIdx = 99
	if _, err := an.Full(badBuf, 40e-12, nil, nil); err == nil {
		t.Error("out-of-range buffer must fail")
	}
	// The engine must recover from an error and produce correct results.
	got, err := an.Full(tree, 40e-12, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sta.Analyze(tree, te, lib, 40e-12)
	if math.Abs(got.Skew()-want.Skew()) > 0 {
		t.Error("post-error analysis diverges")
	}
}
