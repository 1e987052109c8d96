package sta_test

import (
	"math"
	"math/rand"
	"slices"
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
		// About one round in four also moves the input slew, on top of
		// whatever edit batch the round draws.
		slewRNG := rand.New(rand.NewSource(tc.seed + 1))
		inSlew, slewRuns := 40e-12, 0
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
			newSlew := slewRNG.Intn(4) == 0
			if newSlew {
				inSlew = (30 + 30*slewRNG.Float64()) * 1e-12
			}
			before := inc.Stats().IncRuns
			got, err := inc.Analyze(tree, inSlew)
			if err != nil {
				t.Fatalf("sinks=%d round=%d: %v", tc.sinks, round, err)
			}
			if newSlew && inc.Stats().IncRuns > before {
				slewRuns++
			}
			want, err := ref.Full(tree, inSlew, nil, nil)
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
		if slewRuns == 0 {
			t.Errorf("sinks=%d: no input-slew change committed as an update", tc.sinks)
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

// TestIncrementalInputSlewChange: a different input slew commits as a
// dirty-region update that re-times the tree, not as a full run, and the
// result is bitwise a from-scratch analysis at the new slew.
func TestIncrementalInputSlewChange(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 60, 24, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	st0 := inc.Stats()
	got, err := inc.Analyze(tree, 55e-12)
	if err != nil {
		t.Fatal(err)
	}
	if st := inc.Stats(); st.FullRuns != st0.FullRuns || st.IncRuns != st0.IncRuns+1 {
		t.Fatalf("slew change must commit as one update: %+v, then %+v", st0, st)
	}
	want, err := sta.Analyze(tree, te, lib, 55e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "slew-change", tree, got, want)
}

// TestIncrementalSlewRetimeExact: an input-slew change, alone or with
// pending edits, leaves the Result, the Summary and every engine array
// bitwise equal to a fresh pass's at the new slew, and commits as one
// update. The edits rebuild a stage and the stage below one of its
// buffered endpoints (touched in both orders), resize a buffer, or
// resize the root; one case returns to the first slew.
func TestIncrementalSlewRetimeExact(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := synthTree(t, 120, 21, te, lib)
	// e is a buffered endpoint of the stage above it; k, its first kid,
	// lies in the stage e drives.
	e := -1
	for v := range base.Nodes {
		nd := &base.Nodes[v]
		if v != base.Root && nd.BufIdx != ctree.NoBuf && nd.Kids[0] != ctree.NoNode {
			e = v
			break
		}
	}
	if e < 0 {
		t.Fatal("synth tree has no buffered endpoint with kids")
	}
	k := base.Nodes[e].Kids[0]
	resize := func(v int) func(*ctree.Tree) int {
		return func(tree *ctree.Tree) int {
			tree.Nodes[v].BufIdx = (tree.Nodes[v].BufIdx + 1) % len(lib.Buffers)
			return v
		}
	}
	snake := func(v int) func(*ctree.Tree) int {
		return func(tree *ctree.Tree) int {
			tree.Nodes[v].EdgeLen += 30
			return v
		}
	}
	for _, c := range []struct {
		name  string
		edits []func(*ctree.Tree) int
		slews []float64 // the queries after the first, at 40 ps
	}{
		{"slew-only", nil, []float64{55e-12}},
		{"stage-then-below", []func(*ctree.Tree) int{snake(e), snake(k)}, []float64{55e-12}},
		{"below-then-stage", []func(*ctree.Tree) int{snake(k), snake(e)}, []float64{55e-12}},
		{"buffer-resize", []func(*ctree.Tree) int{resize(e)}, []float64{33e-12}},
		{"root-resize", []func(*ctree.Tree) int{resize(base.Root)}, []float64{33e-12}},
		{"back-to-first", nil, []float64{55e-12, 40e-12}},
	} {
		tree := base.Clone()
		inc := sta.NewIncremental(te, lib)
		if _, err := inc.Analyze(tree, 40e-12); err != nil {
			t.Fatal(err)
		}
		for _, edit := range c.edits {
			inc.Touch(edit(tree))
		}
		for i, slew := range c.slews {
			got, err := inc.Analyze(tree, slew)
			if err != nil {
				t.Fatal(err)
			}
			if st := inc.Stats(); st.FullRuns != 1 || st.IncRuns != i+1 {
				t.Fatalf("%s: query %d did not commit as an update: %+v", c.name, i, st)
			}
			ref := sta.NewIncremental(te, lib)
			want, err := ref.Full(tree, slew, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameEngine(t, c.name, tree, inc, ref, got, want)
			checkSummary(t, c.name, tree, te, inc, got)
		}
	}
}

// TestIncrementalSlewRetimeBudget: the re-time's n visits count toward
// the update's 2n budget before any stage work. Cap-dirty stages whose
// estimate alone fits the budget, but not with n more, fall back to a
// full pass at the new slew.
func TestIncrementalSlewRetimeBudget(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 250, 14, te, lib)
	n := len(tree.Nodes)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	// Stage sizes, from the owning driver of every non-root node.
	_, _, drv := sta.EngineArrays(inc)
	size := make([]int, n)
	for v := range tree.Nodes {
		if v != tree.Root {
			size[drv[v]]++
		}
	}
	// Snake one edge in each stage, largest stages first, until the
	// estimate (twice the dirty stage sizes) passes n. It stays within
	// 2n: all stages together hold n-1 nodes.
	var order []int
	for v := range tree.Nodes {
		if v != tree.Root {
			order = append(order, v)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return size[drv[b]] - size[drv[a]] })
	dirty, est := make([]bool, n), 0
	for _, v := range order {
		if est > n {
			break
		}
		if d := drv[v]; !dirty[d] {
			dirty[d] = true
			est += 2 * size[d]
			tree.Nodes[v].EdgeLen += 5
			inc.Touch(v)
		}
	}
	if est <= n || est > 2*n {
		t.Fatalf("estimate %d outside (n, 2n] for n = %d", est, n)
	}
	got, err := inc.Analyze(tree, 55e-12)
	if err != nil {
		t.Fatal(err)
	}
	if st := inc.Stats(); st.Fallbacks != 1 || st.IncRuns != 0 {
		t.Fatalf("estimate %d plus n = %d passes 2n = %d but did not fall back: %+v", est, n, 2*n, st)
	}
	want, err := sta.Analyze(tree, te, lib, 55e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "retime-budget", tree, got, want)
}

// TestIncrementalNonPositiveSlew: a zero or negative input slew returns
// the full pass's error, pending edits or not, and the next query at a
// valid slew is exact.
func TestIncrementalNonPositiveSlew(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 60, 24, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	v := tree.Nodes[tree.Root].Kids[0]
	for _, slew := range []float64{0, -5e-12} {
		tree.Nodes[v].EdgeLen += 10
		inc.Touch(v)
		_, err := inc.Analyze(tree, slew)
		_, want := sta.Analyze(tree, te, lib, slew)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("slew %g: error %v, full pass's %v", slew, err, want)
		}
		got, err := inc.Analyze(tree, 45e-12)
		if err != nil {
			t.Fatal(err)
		}
		ref := sta.NewIncremental(te, lib)
		wantRes, err := ref.Full(tree, 45e-12, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameEngine(t, "after-error", tree, inc, ref, got, wantRes)
		checkSummary(t, "after-error", tree, te, inc, got)
	}
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

// TestIncrementalStageRebuildExact: updates whose stage rebuilds and
// driver restarts interact leave the Result and every engine array
// bitwise equal to a fresh pass's. One update edits a stage and the stage
// below one of its buffered endpoints, touched in both orders, so each
// stage is rebuilt before and after the other; another resizes the root
// together with an edit in the root stage, in both orders.
func TestIncrementalStageRebuildExact(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := synthTree(t, 120, 21, te, lib)
	// e is a buffered endpoint of the stage above it; k, its first kid,
	// lies in the stage e drives. r is a node of the root stage.
	e, r := -1, -1
	for v := range base.Nodes {
		nd := &base.Nodes[v]
		if e < 0 && v != base.Root && nd.BufIdx != ctree.NoBuf && nd.Kids[0] != ctree.NoNode {
			e = v
		}
		if r < 0 && nd.Parent == base.Root {
			r = v
		}
	}
	if e < 0 || r < 0 {
		t.Fatal("synth tree has no buffered endpoint with kids, or no root kid")
	}
	k := base.Nodes[e].Kids[0]
	resizeRoot := func(tree *ctree.Tree) int {
		tree.Nodes[tree.Root].BufIdx = (tree.Nodes[tree.Root].BufIdx + 1) % len(lib.Buffers)
		return tree.Root
	}
	snake := func(v int) func(*ctree.Tree) int {
		return func(tree *ctree.Tree) int {
			tree.Nodes[v].EdgeLen += 30
			return v
		}
	}
	for _, c := range []struct {
		name  string
		edits []func(*ctree.Tree) int
	}{
		{"stage-then-below", []func(*ctree.Tree) int{snake(e), snake(k)}},
		{"below-then-stage", []func(*ctree.Tree) int{snake(k), snake(e)}},
		{"root-resize-then-root-stage", []func(*ctree.Tree) int{resizeRoot, snake(r)}},
		{"root-stage-then-root-resize", []func(*ctree.Tree) int{snake(r), resizeRoot}},
	} {
		tree := base.Clone()
		inc := sta.NewIncremental(te, lib)
		if _, err := inc.Analyze(tree, 40e-12); err != nil {
			t.Fatal(err)
		}
		for _, edit := range c.edits {
			inc.Touch(edit(tree))
		}
		got, err := inc.Analyze(tree, 40e-12)
		if err != nil {
			t.Fatal(err)
		}
		if st := inc.Stats(); st.IncRuns != 1 {
			t.Fatalf("%s: the edits did not take the update path: %+v", c.name, st)
		}
		ref := sta.NewIncremental(te, lib)
		want, err := ref.Full(tree, 40e-12, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameEngine(t, c.name, tree, inc, ref, got, want)
	}
}

// TestSummaryMatchesResultOnNonFiniteArrivals drives NaN and infinite
// sink arrivals through Overrides.EdgeR and checks that the engine's
// Summary holds exactly the bits of Result.Skew and
// Result.MaxSinkArrival. A NaN arrival makes both NaN, even next to an
// infinite one; on every other input they keep the bits of a math.Min
// and math.Max fold, finite inputs included.
func TestSummaryMatchesResultOnNonFiniteArrivals(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 60, 11, te, lib)
	var leaves []int
	for v := range tree.Nodes {
		nd := &tree.Nodes[v]
		if nd.SinkIdx != ctree.NoSink && nd.BufIdx == ctree.NoBuf && tree.IsLeaf(v) {
			leaves = append(leaves, v)
		}
	}
	if len(leaves) < 3 {
		t.Fatalf("tree has %d unbuffered leaf sinks, want at least 3", len(leaves))
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		edgeR []float64 // replaces the feeding-edge resistance of leaves[i]
	}{
		{"finite", nil},
		{"nan", []float64{nan}},
		{"+inf", []float64{inf}},
		{"-inf", []float64{-inf}},
		{"+inf,-inf", []float64{inf, -inf}},
		{"nan,+inf", []float64{nan, inf}},
		{"nan,-inf", []float64{nan, -inf}},
		{"nan,+inf,-inf", []float64{nan, inf, -inf}},
	}
	bits := math.Float64bits
	for _, c := range cases {
		ov := scaledOverrides(tree, te, 1, 1, 1)
		for i, r := range c.edgeR {
			ov.EdgeR[leaves[i]] = r
		}
		inc := sta.NewIncremental(te, lib)
		res, err := inc.Full(tree, 40e-12, ov, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := inc.Summary()
		skew, maxArr := res.Skew(), res.MaxSinkArrival()
		if bits(sum.Skew) != bits(skew) || bits(sum.MaxSinkArrival) != bits(maxArr) {
			t.Errorf("%s: Summary skew %v max %v, Result skew %v max %v",
				c.name, sum.Skew, sum.MaxSinkArrival, skew, maxArr)
		}
		lo, hi, hasNaN := math.Inf(1), math.Inf(-1), false
		for _, a := range res.SinkArrivals(tree) {
			lo, hi = math.Min(lo, a), math.Max(hi, a)
			hasNaN = hasNaN || math.IsNaN(a)
		}
		if hasNaN {
			if !math.IsNaN(skew) || !math.IsNaN(maxArr) {
				t.Errorf("%s: a NaN arrival gave skew %v max %v, want NaN", c.name, skew, maxArr)
			}
		} else if bits(skew) != bits(hi-lo) || bits(maxArr) != bits(hi) {
			t.Errorf("%s: skew %v max %v, math.Min/Max fold %v %v", c.name, skew, maxArr, hi-lo, hi)
		}
		if hasNaN != (len(c.edgeR) > 0 && math.IsNaN(c.edgeR[0])) {
			t.Errorf("%s: NaN arrival present %v, want it exactly where an edge is NaN", c.name, hasNaN)
		}
	}
}

// equalCapLib is the 45 nm library with every buffer's input cap set to
// the first buffer's, so resizing a buffer leaves the load of the stage
// above it bitwise unchanged.
func equalCapLib() *cell.Library {
	lib := cell.Default45()
	for i := range lib.Buffers {
		lib.Buffers[i].InputCap = lib.Buffers[0].InputCap
	}
	return lib
}

// TestIncrementalDirtyStageBelowPrunedEndpoint: an edit batch that
// makes the timing walk stop at an unchanged endpoint above a dirty
// stage. Resizing buffered node v leaves the stage above it cap-dirty
// but bitwise unchanged, so the walk over that stage stops at every
// other endpoint, among them u. The same batch lengthens an edge in the
// stage of buffer x, which lies in the stage u drives: x's stage is
// dirty below the endpoint where the walk stopped, and still has to be
// timed, once. The update must match a fresh pass and cost exactly the
// pinned visits.
func TestIncrementalDirtyStageBelowPrunedEndpoint(t *testing.T) {
	te := tech.Tech45()
	lib := equalCapLib()
	tree := synthTree(t, 1500, 7, te, lib)
	inc := sta.NewIncremental(te, lib)
	if _, err := inc.Analyze(tree, 40e-12); err != nil {
		t.Fatal(err)
	}
	_, _, drv := sta.EngineArrays(inc)
	buffered := func(v int) bool { return v != tree.Root && tree.Nodes[v].BufIdx != ctree.NoBuf }
	// x is the first buffer, in node order, in the stage of a buffered
	// endpoint u that has a sibling endpoint v; y is the first node of
	// x's stage.
	v, u, x, y := -1, -1, -1, -1
	for a := range tree.Nodes {
		if !buffered(a) || !buffered(drv[a]) {
			continue
		}
		for b := range tree.Nodes {
			if b != drv[a] && buffered(b) && drv[b] == drv[drv[a]] {
				v, u, x = b, drv[a], a
				break
			}
		}
		if x >= 0 {
			break
		}
	}
	if x < 0 {
		t.Fatal("tree has no buffer below an endpoint with a sibling endpoint")
	}
	for k := range tree.Nodes {
		if drv[k] == x {
			y = k
			break
		}
	}
	before, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	tree.Nodes[v].BufIdx = (tree.Nodes[v].BufIdx + 1) % len(lib.Buffers)
	inc.Touch(v)
	tree.Nodes[y].EdgeLen += 30
	inc.Touch(y)
	v0 := inc.Stats().NodeVisits
	got, err := inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sta.Analyze(tree, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	compareExact(t, "pruned", tree, got, want)
	checkSummary(t, "pruned", tree, te, inc, got)
	if want.Arrival[u] != before.Arrival[u] || want.Slew[u] != before.Slew[u] {
		t.Fatalf("endpoint %d moved: the walk would not stop there", u)
	}
	if want.Arrival[y] == before.Arrival[y] {
		t.Fatalf("the edit at node %d left its own arrival unchanged", y)
	}
	// Twice the stage above v (rebuilt, then walked) and x's stage
	// (rebuilt, then walked), plus the stages below v and x that their
	// changes reach, each timed once.
	if st := inc.Stats(); st.IncRuns != 1 || st.NodeVisits-v0 != 3654 {
		t.Fatalf("update cost %d visits, pinned at 3654: %+v", st.NodeVisits-v0, st)
	}
}

// TestIncrementalSlewChangeRootPin: the root pin's input slew counts in
// the Summary like any other pin's transition. Raising it past
// te.MaxSlew makes the root the worst pin and a violation; lowering it
// back under the limit takes both away. Both are updates folded into a
// Summary that was current before them.
func TestIncrementalSlewChangeRootPin(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 120, 21, te, lib)
	inc := sta.NewIncremental(te, lib)
	res, err := inc.Analyze(tree, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	checkSummary(t, "first", tree, te, inc, res)
	for i, slew := range []float64{120e-12, 40e-12} {
		got, err := inc.Analyze(tree, slew)
		if err != nil {
			t.Fatal(err)
		}
		if st := inc.Stats(); st.FullRuns != 1 || st.IncRuns != i+1 {
			t.Fatalf("slew %g did not commit as an update: %+v", slew, st)
		}
		want, err := sta.Analyze(tree, te, lib, slew)
		if err != nil {
			t.Fatal(err)
		}
		compareExact(t, "root-pin", tree, got, want)
		checkSummary(t, "root-pin", tree, te, inc, got)
		worst, at := got.WorstSlew()
		if over := slew > te.MaxSlew; over != (at == tree.Root) || over != (worst == slew) {
			t.Fatalf("slew %g: worst transition %g at node %d, root %d", slew, worst, at, tree.Root)
		}
	}
}
