package sta_test

import (
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// compareExact asserts two results agree bitwise — stronger than the
// 1e-12 the incremental contract promises, and what the byte-identical
// optimizer invariance relies on.
func compareExact(t *testing.T, tag string, tree *ctree.Tree, got, want *sta.Result) {
	t.Helper()
	for v := range tree.Nodes {
		if got.Arrival[v] != want.Arrival[v] {
			t.Fatalf("%s: node %d arrival %.17g, want %.17g", tag, v, got.Arrival[v], want.Arrival[v])
		}
		if got.Slew[v] != want.Slew[v] {
			t.Fatalf("%s: node %d slew %.17g, want %.17g", tag, v, got.Slew[v], want.Slew[v])
		}
		if got.DownCap[v] != want.DownCap[v] {
			t.Fatalf("%s: node %d downcap %.17g, want %.17g", tag, v, got.DownCap[v], want.DownCap[v])
		}
	}
	if len(got.Drivers) != len(want.Drivers) {
		t.Fatalf("%s: %d stages, want %d", tag, len(got.Drivers), len(want.Drivers))
	}
	for k, d := range want.Drivers {
		if got.Drivers[k] != d {
			t.Fatalf("%s: driver[%d] = %d, want %d", tag, k, got.Drivers[k], d)
		}
		if got.StageCap[d] != want.StageCap[d] {
			t.Fatalf("%s: StageCap[%d] %.17g, want %.17g", tag, d, got.StageCap[d], want.StageCap[d])
		}
	}
	if got.WireCap != want.WireCap || got.SinkCap != want.SinkCap ||
		got.BufInCap != want.BufInCap || got.BufIntCap != want.BufIntCap ||
		got.LeakageTot != want.LeakageTot || got.BufferCount != want.BufferCount {
		t.Fatalf("%s: inventory diverges: wire %.17g/%.17g bufin %.17g/%.17g count %d/%d",
			tag, got.WireCap, want.WireCap, got.BufInCap, want.BufInCap,
			got.BufferCount, want.BufferCount)
	}
	if got.Skew() != want.Skew() || got.MaxSinkArrival() != want.MaxSinkArrival() {
		t.Fatalf("%s: summary diverges", tag)
	}
}

// checkSummary asserts the engine's maintained Summary equals scans of
// its latest result and of the tree: the Result's own accessors for the
// timing aggregates, and node-order loops over the Node structs for the
// length inventory — the computations the summary replaces.
func checkSummary(t *testing.T, tag string, tree *ctree.Tree, te *tech.Tech, inc *sta.Incremental, res *sta.Result) {
	t.Helper()
	sum := inc.Summary()
	worst, _ := res.WorstSlew()
	if sum.Skew != res.Skew() || sum.MaxSinkArrival != res.MaxSinkArrival() ||
		sum.WorstSlew != worst || sum.SlewViol != res.SlewViolations(te.MaxSlew) {
		t.Fatalf("%s: timing summary skew %.17g/%.17g max %.17g/%.17g worst %.17g/%.17g viol %d/%d",
			tag, sum.Skew, res.Skew(), sum.MaxSinkArrival, res.MaxSinkArrival(),
			sum.WorstSlew, worst, sum.SlewViol, res.SlewViolations(te.MaxSlew))
	}
	lbr := make([]float64, te.NumRules())
	var area, ndr float64
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.Parent == ctree.NoNode {
			continue
		}
		lbr[n.Rule] += n.EdgeLen
		area += n.EdgeLen * te.Layer.TrackPitch(te.Rule(n.Rule))
		if !te.Rule(n.Rule).IsDefault() {
			ndr += n.EdgeLen
		}
	}
	if sum.WireLen != tree.TotalWirelength() || sum.TrackArea != area || sum.NDRLen != ndr {
		t.Fatalf("%s: length summary wl %.17g/%.17g area %.17g/%.17g ndr %.17g/%.17g",
			tag, sum.WireLen, tree.TotalWirelength(), sum.TrackArea, area, sum.NDRLen, ndr)
	}
	for r := range lbr {
		if sum.LenByRule[r] != lbr[r] {
			t.Fatalf("%s: LenByRule[%d] %.17g, want %.17g", tag, r, sum.LenByRule[r], lbr[r])
		}
	}
}

// mutate applies one random edit to the tree and reports it to inc.
// Kind mix: rule changes and edge-length growth dominate (the optimizer's
// edits), with occasional buffer resizes, sink pin-cap edits (the design
// session workload), and revert pairs.
func mutate(rng *rand.Rand, tree *ctree.Tree, te *tech.Tech, lib *cell.Library, inc *sta.Incremental) {
	n := len(tree.Nodes)
	for {
		v := rng.Intn(n)
		nd := &tree.Nodes[v]
		switch k := rng.Intn(11); {
		case k < 5: // rule change
			if nd.Parent == ctree.NoNode {
				continue
			}
			nd.Rule = rng.Intn(te.NumRules())
			inc.Touch(v)
		case k < 8: // edge-length growth (snaking)
			if nd.Parent == ctree.NoNode {
				continue
			}
			nd.EdgeLen += rng.Float64() * 40
			inc.Touch(v)
		case k < 9: // buffer resize (never add/remove)
			if nd.BufIdx == ctree.NoBuf {
				continue
			}
			nd.BufIdx = rng.Intn(len(lib.Buffers))
			inc.Touch(v)
		case k < 10: // sink pin-cap edit on an unbuffered leaf
			if nd.SinkIdx == ctree.NoSink || nd.BufIdx != ctree.NoBuf || !tree.IsLeaf(v) {
				continue
			}
			tree.Sinks[nd.SinkIdx].Cap = (1 + 3*rng.Float64()) * 1e-15
			inc.Touch(v)
		default: // touch-then-revert: must be a no-op
			if nd.Parent == ctree.NoNode {
				continue
			}
			old := nd.Rule
			nd.Rule = rng.Intn(te.NumRules())
			inc.Touch(v)
			nd.Rule = old
			inc.Touch(v)
		}
		return
	}
}

// TestIncrementalDifferential is the correctness harness the tentpole
// demands: randomized trees, randomized edit sequences, every incremental
// Analyze compared bitwise against a from-scratch analysis of the same
// tree state.
func TestIncrementalDifferential(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	ref := sta.NewIncremental(te, lib)
	for _, tc := range []struct {
		sinks int
		seed  int64
	}{{25, 11}, {60, 12}, {120, 13}, {250, 14}} {
		tree := synthTree(t, tc.sinks, tc.seed, te, lib)
		rng := rand.New(rand.NewSource(tc.seed * 1000))
		// The summary is read on a random third of the rounds, so its
		// patches also accumulate across several updates between reads.
		readRNG := rand.New(rand.NewSource(tc.seed))
		inc := sta.NewIncremental(te, lib)
		for round := 0; round < 60; round++ {
			// Edit batches from 0 (cached path) through localized (1–3)
			// up to wide batches that should trip the fallback.
			batch := 0
			switch rng.Intn(8) {
			case 0:
				batch = 0
			case 1, 2, 3, 4:
				batch = 1 + rng.Intn(3)
			case 5, 6:
				batch = 4 + rng.Intn(12)
			default:
				batch = len(tree.Nodes) / 2
			}
			for i := 0; i < batch; i++ {
				mutate(rng, tree, te, lib, inc)
			}
			got, err := inc.Analyze(tree, 40e-12)
			if err != nil {
				t.Fatalf("sinks=%d round=%d: %v", tc.sinks, round, err)
			}
			want, err := ref.Full(tree, 40e-12, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareExact(t, "differential", tree, got, want)
			if readRNG.Intn(3) == 0 {
				checkSummary(t, "differential", tree, te, inc, got)
				checkSummary(t, "differential full", tree, te, ref, want)
			}
		}
		st := inc.Stats()
		if st.IncRuns == 0 {
			t.Errorf("sinks=%d: no incremental run committed (full=%d cached=%d fallback=%d)",
				tc.sinks, st.FullRuns, st.CachedRuns, st.Fallbacks)
		}
		if st.CachedRuns == 0 {
			t.Errorf("sinks=%d: cached path never exercised", tc.sinks)
		}
	}
}

// TestIncrementalCachedRun: a zero-edit Analyze must be served from cache
// and still be exact.
func TestIncrementalCachedRun(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 50, 22, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	v0 := inc.Stats().NodeVisits
	got, err := inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.CachedRuns != 1 || st.NodeVisits != v0 {
		t.Fatalf("zero-edit analyze not cached: %+v", st)
	}
	want, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "cached", tree, got, want)
}

// TestIncrementalStructuralFallback: adding or removing a buffer changes
// stage structure and must fall back to a full pass — and stay exact.
func TestIncrementalStructuralFallback(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 60, 23, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	// Promote a non-buffered internal node to a buffer.
	target := -1
	for v := range tree.Nodes {
		if tree.Nodes[v].BufIdx == ctree.NoBuf && !tree.IsLeaf(v) && tree.Nodes[v].Parent != ctree.NoNode {
			target = v
			break
		}
	}
	if target < 0 {
		t.Skip("no promotable node in this tree")
	}
	tree.Nodes[target].BufIdx = 0
	inc.Touch(target)
	got, err := inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats().Fallbacks != 1 {
		t.Fatalf("structural edit did not fall back: %+v", inc.Stats())
	}
	want, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "structural", tree, got, want)
}

// TestIncrementalInputSlewChange: a different input slew invalidates the
// cache (full run), and localized edits afterwards are incremental again.
func TestIncrementalInputSlewChange(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 60, 24, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Analyze(tree, 55e-12)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats().FullRuns != 2 {
		t.Fatalf("slew change must force a full run: %+v", inc.Stats())
	}
	want, err := sta.Analyze(tree, te, lib, 55e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "slew-change", tree, got, want)
}

// TestIncrementalLocalizedEditVisits: one leaf-stage edit on a large tree
// must cost a small fraction of a full pass's 2n visits.
func TestIncrementalLocalizedEditVisits(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 500, 25, te, lib)
	n := len(tree.Nodes)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	// Deepest sink's feeding edge: its stage has no stages below it.
	deepest, bestDepth := -1, -1
	depth := make([]int, n)
	tree.PreOrder(func(v int) {
		if p := tree.Nodes[v].Parent; p != ctree.NoNode {
			depth[v] = depth[p] + 1
		}
		if tree.Nodes[v].SinkIdx != ctree.NoSink && depth[v] > bestDepth {
			deepest, bestDepth = v, depth[v]
		}
	})
	v0 := inc.Stats().NodeVisits
	tree.Nodes[deepest].EdgeLen += 5
	inc.Touch(deepest)
	got, err := inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.IncRuns != 1 {
		t.Fatalf("leaf edit did not take the incremental path: %+v", st)
	}
	cost := st.NodeVisits - v0
	if cost > int64(2*n/5) {
		t.Errorf("leaf-stage edit cost %d visits on a %d-node tree (full pass = %d)", cost, n, 2*n)
	}
	want, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "localized", tree, got, want)
}

// TestIncrementalSinkCapEdit: a sink pin-cap edit on an unbuffered leaf
// must take the incremental path (not a fallback), stay local to the
// owning stage's cost scale, and commit results bitwise identical to a
// from-scratch analysis — including the SinkCap inventory sum.
func TestIncrementalSinkCapEdit(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 300, 31, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	leaf := -1
	for v := range tree.Nodes {
		nd := &tree.Nodes[v]
		if nd.SinkIdx != ctree.NoSink && nd.BufIdx == ctree.NoBuf && tree.IsLeaf(v) {
			leaf = v
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no unbuffered sink leaf in synth tree")
	}
	si := tree.Nodes[leaf].SinkIdx
	origCap := tree.Sinks[si].Cap
	tree.Sinks[si].Cap *= 2.5
	inc.Touch(leaf)
	got, err := inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.IncRuns != 1 || st.Fallbacks != 0 {
		t.Fatalf("sink-cap edit did not take the incremental path: %+v", st)
	}
	want, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "sink-cap", tree, got, want)

	// Restoring the exact original bits must also go incrementally and
	// return the state of the first analysis (sessions roll back this way).
	tree.Sinks[si].Cap = origCap
	inc.Touch(leaf)
	got, err = inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats().IncRuns != 2 {
		t.Fatalf("sink-cap revert did not take the incremental path: %+v", inc.Stats())
	}
	want, err = sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "sink-cap-revert", tree, got, want)
}

// TestIncrementalRootBufferResize pins a fix: resizing the root driver's
// buffer has no parent stage to rebuild the root's own lumped cap, so the
// update path must refresh Result.DownCap[root] itself.
func TestIncrementalRootBufferResize(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 40, 33, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	root := tree.Root
	if tree.Nodes[root].BufIdx == ctree.NoBuf {
		t.Fatal("synth tree root is unbuffered")
	}
	tree.Nodes[root].BufIdx = (tree.Nodes[root].BufIdx + 1) % len(lib.Buffers)
	inc.Touch(root)
	got, err := inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats().IncRuns != 1 {
		t.Fatalf("root resize did not take the incremental path: %+v", inc.Stats())
	}
	want, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "root-resize", tree, got, want)
}
