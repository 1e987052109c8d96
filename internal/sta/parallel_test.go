package sta_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/testutil"
	"smartndr/internal/topo"
)

// stitched builds a hierarchical tree the way the hierarchical flow does
// before its global balance: n random sinks median-partitioned into
// regions of at most maxRegion, one blanket build per region, stitched
// under an uncalibrated top tree.
func stitched(t testing.TB, n, maxRegion int, seed int64, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spread := math.Sqrt(float64(n)) * 60
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread},
			Cap: (1 + rng.Float64()) * 1e-15,
		}
	}
	src := geom.Point{X: spread / 2, Y: spread / 2}
	regions := topo.Partition(sinks, maxRegion)
	trees := make([]*ctree.Tree, len(regions))
	pseudo := make([]ctree.Sink, len(regions))
	for i, members := range regions {
		sub := make([]ctree.Sink, len(members))
		for j, m := range members {
			sub[j] = sinks[m]
		}
		built, err := cts.Build(sub, src, te, lib, cts.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rt := built.Tree
		rt.SetAllRules(te.BlanketRule)
		an, err := sta.Analyze(rt, te, lib, sta.DefaultInSlew)
		if err != nil {
			t.Fatal(err)
		}
		root := rt.Nodes[rt.Root]
		trees[i] = rt
		pseudo[i] = ctree.Sink{Name: "region", Loc: root.Loc, Cap: lib.Buffers[root.BufIdx].InputCap, Delay: an.MaxSinkArrival()}
	}
	top, err := cts.Build(pseudo, src, te, lib, cts.Options{NoCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	top.Tree.SetAllRules(te.BlanketRule)
	return cts.Stitch(sinks, src, top.Tree, trees, regions, make([]int, len(regions)))
}

// chain builds a buffered root driving one serial chain of n unbuffered
// unit edges, with a buffer every 50 nodes, ending in one sink.
func chain(n int, te *tech.Tech) *ctree.Tree {
	tr := ctree.NewTree([]ctree.Sink{{Name: "ff", Loc: geom.Point{X: float64(n)}, Cap: 2e-15}}, geom.Point{})
	prev := ctree.NoNode
	for i := 0; i <= n; i++ {
		nd := ctree.Node{
			Parent: prev, Kids: [2]int{ctree.NoNode, ctree.NoNode}, SinkIdx: ctree.NoSink,
			Loc: geom.Point{X: float64(i)}, EdgeLen: 1, Rule: te.DefaultRule, BufIdx: ctree.NoBuf,
		}
		if i%50 == 0 {
			nd.BufIdx = 1
		}
		if i == 0 {
			nd.EdgeLen = 0
		}
		if i == n {
			nd.SinkIdx, nd.BufIdx = 0, ctree.NoBuf
		}
		idx := tr.AddNode(nd)
		if prev == ctree.NoNode {
			tr.Root = idx
		} else {
			tr.Nodes[prev].Kids[0] = idx
		}
		prev = idx
	}
	return tr
}

// sameEngine asserts two engines hold bitwise-equal results and per-node
// arrays after a pass over tree.
func sameEngine(t *testing.T, tag string, tree *ctree.Tree, got, want *sta.Incremental, gotRes, wantRes *sta.Result) {
	t.Helper()
	compareExact(t, tag, tree, gotRes, wantRes)
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !bits(gotRes.WireCap, wantRes.WireCap) || !bits(gotRes.SinkCap, wantRes.SinkCap) ||
		!bits(gotRes.BufInCap, wantRes.BufInCap) || !bits(gotRes.BufIntCap, wantRes.BufIntCap) ||
		!bits(gotRes.LeakageTot, wantRes.LeakageTot) || !bits(gotRes.Skew(), wantRes.Skew()) {
		t.Fatalf("%s: inventory bits differ", tag)
	}
	gn, gd, gdrv := sta.EngineArrays(got)
	wn, wd, wdrv := sta.EngineArrays(want)
	for v := range tree.Nodes {
		for a := range gn {
			if !bits(gn[a][v], wn[a][v]) {
				t.Fatalf("%s: node %d array %d: %.17g, want %.17g", tag, v, a, gn[a][v], wn[a][v])
			}
		}
		if gdrv[v] != wdrv[v] {
			t.Fatalf("%s: node %d driver %d, want %d", tag, v, gdrv[v], wdrv[v])
		}
		if !bits(gotRes.Arrival[v], wantRes.Arrival[v]) || !bits(gotRes.Slew[v], wantRes.Slew[v]) {
			t.Fatalf("%s: node %d timing bits differ", tag, v)
		}
	}
	for _, d := range wantRes.Drivers {
		for a := range gd {
			if !bits(gd[a][d], wd[a][d]) {
				t.Fatalf("%s: driver %d array %d: %.17g, want %.17g", tag, d, a, gd[a][d], wd[a][d])
			}
		}
	}
}

// TestParallelFullMatchesSerial: a full pass on 1, 2, 3 and 8 workers
// writes the serial pass's Result and per-node arrays bit for bit, under
// nominal parasitics and under overrides, on a stitched tree, a deep
// chain (one long top part above a single cut) and a tree smaller than
// any cut (all top part). Each engine times the trees twice, in turn, so
// a split kept from an earlier pass is exercised too.
func TestParallelFullMatchesSerial(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	trees := []struct {
		name string
		tree *ctree.Tree
	}{
		{"stitched", stitched(t, 3000, 400, 3, te, lib)},
		{"chain", chain(5000, te)},
		{"small", chain(12, te)},
	}
	if n := len(trees[2].tree.Nodes); n >= 16 {
		t.Fatalf("small tree has %d nodes, too many to stay below every cut", n)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		pooled := sta.NewParallel(context.Background(), te, lib, workers)
		cuts := 0
		for round := 0; round < 2; round++ {
			for _, c := range trees {
				for _, ov := range []*sta.Overrides{nil, scaledOverrides(c.tree, te, 1.05, 0.95, 1.02)} {
					serial := sta.NewIncremental(te, lib)
					want, err := serial.Full(c.tree, 40e-12, ov, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pooled.Full(c.tree, 40e-12, ov, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameEngine(t, c.name, c.tree, pooled, serial, got, want)
					k, top := sta.Split(pooled)
					if workers > 1 && c.name != "small" && len(k) < 1 {
						t.Fatalf("%s at %d workers: no subtree cut", c.name, workers)
					}
					if workers > 1 && c.name == "small" && (len(k) != 0 || len(top) != len(c.tree.Nodes)) {
						t.Fatalf("small tree at %d workers: %d cuts, top %d of %d nodes", workers, len(k), len(top), len(c.tree.Nodes))
					}
					cuts += len(k)
				}
			}
		}
		t.Logf("%d workers: %d subtrees cut over all passes", workers, cuts)
	}
}

// TestParallelAnalyzeRunsFullPasses: an engine from NewParallel answers
// every query with pending edits by a full pass, never by a dirty-region
// update, at one worker as at two, and its answers equal the incremental
// engine's, which updates.
func TestParallelAnalyzeRunsFullPasses(t *testing.T) {
	for _, workers := range []int{1, 2} {
		analyzeFullPasses(t, workers)
	}
}

func analyzeFullPasses(t *testing.T, workers int) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := stitched(t, 2000, 300, 4, te, lib)
	serialTree := tree.Clone()
	pooled := sta.NewParallel(context.Background(), te, lib, workers)
	serial := sta.NewIncremental(te, lib)
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 6; q++ {
		for e := 0; e < 40; e++ {
			v := 1 + rng.Intn(len(tree.Nodes)-1)
			if tree.Nodes[v].Parent == ctree.NoNode {
				continue
			}
			dl := rng.Float64() * 20
			tree.Nodes[v].EdgeLen += dl
			serialTree.Nodes[v].EdgeLen += dl
			pooled.Touch(v)
			serial.Touch(v)
		}
		got, err := pooled.Analyze(tree, 40e-12)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Analyze(serialTree, 40e-12)
		if err != nil {
			t.Fatal(err)
		}
		compareExact(t, "query", tree, got, want)
	}
	if _, err := pooled.Analyze(tree, 40e-12); err != nil { // nothing pending: cached
		t.Fatal(err)
	}
	st := pooled.Stats()
	if st.FullRuns != 6 || st.IncRuns != 0 || st.CachedRuns != 1 {
		t.Fatalf("%d workers: engine stats %+v, want 6 full runs, 1 cached and no updates", workers, st)
	}
	if serial.Stats().IncRuns == 0 {
		t.Fatal("the serial engine never updated: the workload does not tell the policies apart")
	}
}

// TestParallelCancelled: once its context is done, a pooled engine's
// query returns the context's error before doing any work, and the
// engine recovers under a live context.
func TestParallelCancelled(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := stitched(t, 1000, 200, 6, te, lib)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inc := sta.NewParallel(ctx, te, lib, 2)
	if _, err := inc.Analyze(tree, 40e-12); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Analyze returned %v", err)
	}
	if st := inc.Stats(); st.FullRuns != 0 {
		t.Fatalf("cancelled Analyze ran %d passes", st.FullRuns)
	}
}

// TestParallelPassAllocs pins a pooled full pass at zero allocations once
// its engine is sized: its workers start from a function bound once, and
// their stacks and the split are reused.
func TestParallelPassAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := stitched(t, 2000, 300, 7, te, lib)
	inc := sta.NewParallel(context.Background(), te, lib, 2)
	if _, err := inc.Full(tree, 40e-12, nil, nil); err != nil {
		t.Fatal(err)
	}
	testutil.PinAllocs(t, "pooled Full (2 workers)", 5, 0, func() {
		if _, err := inc.Full(tree, 40e-12, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}
