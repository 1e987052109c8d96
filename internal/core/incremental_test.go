package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/obs"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// sameTree asserts two trees agree bitwise on every optimizer-visible
// field (rules, edge lengths, buffers).
func sameTree(t *testing.T, tag string, a, b *ctree.Tree) {
	t.Helper()
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("%s: node counts differ", tag)
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.Rule != y.Rule || x.EdgeLen != y.EdgeLen || x.BufIdx != y.BufIdx {
			t.Fatalf("%s: node %d diverges: rule %d/%d len %.17g/%.17g buf %d/%d",
				tag, i, x.Rule, y.Rule, x.EdgeLen, y.EdgeLen, x.BufIdx, y.BufIdx)
		}
	}
}

// fullTimer is the reference timing engine: every query is a from-scratch
// pass, so no optimizer decision can depend on the dirty-region path. The
// passes never leave state to update from, so the promoted Touch is a
// no-op; Stats counts each query as a full run.
type fullTimer struct{ *sta.Incremental }

func newFullTimer(te *tech.Tech, lib *cell.Library) fullTimer {
	return fullTimer{sta.NewIncremental(te, lib)}
}

func (f fullTimer) Analyze(t *ctree.Tree, inSlew float64) (*sta.Result, error) {
	return f.Full(t, inSlew, nil, nil)
}

// TestOptimizeIncrementalInvariance: answering the optimizer's timing
// queries incrementally must not change a single decision — Stats
// (including every per-pass table) and the final tree are byte-identical
// to a run against the full-pass reference engine. This is the strong
// form of the ≤1e-12 contract: the incremental engine is bitwise exact,
// so the flows cannot diverge.
func TestOptimizeIncrementalInvariance(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	em := DefaultEMLimit()
	cases := []struct {
		name string
		n    int
		seed int64
		cfg  Config
	}{
		{"default", 200, 7, Config{}},
		{"em", 150, 8, Config{EM: &em}},
		{"no-repair", 150, 9, Config{DisableRepair: true}},
		{"by-index", 120, 10, Config{Order: ByIndex}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := buildBlanket(t, tc.n, tc.seed, float64(tc.n)*10, te, lib)
			incTree, fullTree := base.Clone(), base.Clone()

			stInc, err := Optimize(incTree, te, lib, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stFull, err := optimize(fullTree, te, lib, tc.cfg, newFullTimer(te, lib))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stInc, stFull) {
				t.Errorf("stats diverge:\nincremental: %+v\nfull:        %+v", stInc, stFull)
			}
			sameTree(t, tc.name, incTree, fullTree)
		})
	}
}

// optimizeVisits runs the optimizer against tim on a fresh copy of the
// benchmark testcase and returns the STA node-visit count reported
// through the tracer.
func optimizeVisits(t *testing.T, tree *ctree.Tree, te *tech.Tech, lib *cell.Library, cfg Config, tim timer) float64 {
	t.Helper()
	tr := obs.New(obs.NewCollector())
	cfg.Tracer = tr
	if _, err := optimize(tree, te, lib, cfg, tim); err != nil {
		t.Fatal(err)
	}
	return tr.Registry().Counter("sta.node_visits")
}

// TestOptimizeNodeVisitReduction measures the headline number: STA node
// visits per Optimize call on the benchmark testcase (the 300-sink tree
// BenchmarkOptimize runs), incremental vs full analysis. The acceptance
// bar is ≥5×.
func TestOptimizeNodeVisitReduction(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	em := DefaultEMLimit()
	cfg := Config{EM: &em}

	base := buildBlanket(t, 300, 55, 3000, te, lib)
	if _, err := RepairToTargets(context.Background(), base, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
		t.Fatal(err)
	}

	fullVisits := optimizeVisits(t, base.Clone(), te, lib, cfg, newFullTimer(te, lib))
	incVisits := optimizeVisits(t, base.Clone(), te, lib, cfg, sta.NewIncremental(te, lib))
	if fullVisits == 0 || incVisits == 0 {
		t.Fatalf("missing visit counters: full=%v inc=%v", fullVisits, incVisits)
	}
	ratio := fullVisits / incVisits
	t.Logf("STA node visits: full=%.0f incremental=%.0f reduction=%.2fx", fullVisits, incVisits, ratio)
	if ratio < 5 {
		t.Errorf("node-visit reduction %.2fx, want ≥5x", ratio)
	}
}

// deepChain builds a pathological tree: a buffered root driving one
// serial chain of n unbuffered nodes ending in a single sink.
func deepChain(n int, te *tech.Tech) *ctree.Tree {
	tr := ctree.NewTree([]ctree.Sink{{Name: "ff", Loc: geom.Point{X: float64(n), Y: 0}, Cap: 2e-15}}, geom.Point{})
	prev := ctree.NoNode
	for i := 0; i <= n; i++ {
		nd := ctree.Node{
			Parent:  prev,
			Kids:    [2]int{ctree.NoNode, ctree.NoNode},
			SinkIdx: ctree.NoSink,
			Loc:     geom.Point{X: float64(i), Y: 0},
			EdgeLen: 1,
			Rule:    te.DefaultRule,
			BufIdx:  ctree.NoBuf,
		}
		if i == 0 {
			nd.EdgeLen = 0
			nd.BufIdx = 0
		}
		if i == n {
			nd.SinkIdx = 0
		}
		idx := tr.AddNode(nd)
		if prev != ctree.NoNode {
			tr.Nodes[prev].Kids[0] = idx
		} else {
			tr.Root = idx
		}
		prev = idx
	}
	return tr
}

// TestDeepChainTraversals: the explicit-stack DFS conversions must handle
// degenerate serial chains that would grow one recursion frame per node.
func TestDeepChainTraversals(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	const n = 150_000
	tr := deepChain(n, te)

	span := newSinkSpan(tr)
	if len(span.node) != 1 {
		t.Fatalf("chain has %d spanned sinks, want 1", len(span.node))
	}
	for v := range tr.Nodes {
		if span.lo[v] != 0 || span.hi[v] != 1 {
			t.Fatalf("node %d span [%d,%d), want [0,1)", v, span.lo[v], span.hi[v])
		}
	}

	se := newStageScratch(tr, te, lib)
	se.reset(tr.Root)
	if len(se.nodes) != n {
		t.Fatalf("stage gathered %d nodes, want %d", len(se.nodes), n)
	}
	ends := 0
	for _, e := range se.endpoint {
		if e {
			ends++
		}
	}
	if ends != 1 {
		t.Fatalf("stage has %d endpoints, want 1 (the sink)", ends)
	}
	st := se.eval(40e-12, se.arr[0])
	if st.worstSlew <= 0 || st.stageCap <= 0 {
		t.Fatalf("implausible chain stage eval: %+v", st)
	}

	// The STA itself is already iterative; confirm it agrees with the
	// stage-local view on the chain's load.
	res, err := sta.Analyze(tr, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if res.StageCap[tr.Root] != st.stageCap {
		t.Errorf("stage cap %.17g vs STA %.17g", st.stageCap, res.StageCap[tr.Root])
	}
}

// BenchmarkOptimize is the benchmark testcase for the incremental-STA
// numbers in docs/performance.md: the 300-sink EM-aware optimization
// through Optimize's own engine.
func BenchmarkOptimize(b *testing.B) {
	benchOptimize(b, false)
}

// BenchmarkOptimizeFullSTA is the same workload with every timing query
// answered by a from-scratch analysis — the before/after baseline.
func BenchmarkOptimizeFullSTA(b *testing.B) {
	benchOptimize(b, true)
}

func benchOptimize(b *testing.B, full bool) {
	te := tech.Tech45()
	lib := cell.Default45()
	em := DefaultEMLimit()
	base := buildBlanket(b, 300, 55, 3000, te, lib)
	if _, err := RepairToTargets(context.Background(), base, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := base.Clone()
		b.StartTimer()
		cfg := Config{EM: &em}
		var err error
		if full {
			_, err = optimize(tr, te, lib, cfg, newFullTimer(te, lib))
		} else {
			_, err = Optimize(tr, te, lib, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairSkew measures skew repair through its entry point,
// which times every state with a full pass, on a 300-sink tree that
// converges on its first analysis. BenchmarkRepairSkewIncremental runs
// the same loop on the dirty-region engine, the policy the entry point
// does not take.
func BenchmarkRepairSkew(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	benchRepair(b, buildBlanket(b, 300, 55, 3000, te, lib), te, lib, false)
}

func BenchmarkRepairSkewIncremental(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	benchRepair(b, buildBlanket(b, 300, 55, 3000, te, lib), te, lib, true)
}

// BenchmarkRepairSkewRollback is skew repair on TestRepairSkewAllocBound's
// staggered 400-sink tree, which rolls back five of its six iterations:
// the pair with BenchmarkRepairSkewRollbackIncremental prices the two
// timing policies on a workload that iterates.
func BenchmarkRepairSkewRollback(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	benchRepair(b, staggeredTree(b, te, lib), te, lib, false)
}

func BenchmarkRepairSkewRollbackIncremental(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	benchRepair(b, staggeredTree(b, te, lib), te, lib, true)
}

// benchRepair repairs a clone of base per operation: through
// RepairToTargets on one worker, or, when incremental is set, through the
// repair loop on a fresh dirty-region engine.
func benchRepair(b *testing.B, base *ctree.Tree, te *tech.Tech, lib *cell.Library, incremental bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := base.Clone()
		b.StartTimer()
		var err error
		if incremental {
			sc := newRepairScratch(len(tr.Nodes))
			_, err = repairToTargets(sta.NewIncremental(te, lib), &sc, tr, te, lib, 40e-12, nil, te.MaxSkew, 30)
		} else {
			_, err = RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestRepairSkewParallelMatchesSerial: RepairToTargets, which times every
// state with a full pass on its workers, returns the stats and tree of
// the same loop on the dirty-region engine, bit for bit, at 1, 2, 3 and 8
// workers. The cases are the seeded repairs that roll back: stitched
// trees, the staggered tree, and useful-skew schedules with non-nil
// targets.
func TestRepairSkewParallelMatchesSerial(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	for _, c := range repairCases(t, te, lib) {
		if !c.wantRolls {
			continue
		}
		want := c.tree.Clone()
		sc := newRepairScratch(len(want.Nodes))
		stWant, err := repairToTargets(sta.NewIncremental(te, lib), &sc, want, te, lib, 40e-12, c.targets, c.tol, c.iters)
		if err != nil {
			t.Fatal(err)
		}
		if stWant.Iters < 2 || stWant.Rollbacks == 0 {
			t.Fatalf("%s: repair ran %d iterations, %d rolled back — too few to compare the engines", c.name, stWant.Iters, stWant.Rollbacks)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := c.tree.Clone()
			st, err := RepairToTargets(context.Background(), got, te, lib, 40e-12, c.targets, c.tol, c.iters, workers)
			if err != nil {
				t.Fatal(err)
			}
			if st != stWant {
				t.Errorf("%s at %d workers: stats %+v, dirty-region engine %+v", c.name, workers, st, stWant)
			}
			sameTree(t, c.name, got, want)
		}
	}
}

// TestRepairSkewParallelCancelled: with its context already cancelled,
// repair returns the context's error before timing anything and leaves
// every edge length as it was.
func TestRepairSkewParallelCancelled(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := staggeredTree(t, te, lib)
	before := tr.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RepairToTargets(ctx, tr, te, lib, 40e-12, nil, te.MaxSkew, 40, 2)
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled repair returned %v, want %v", err, ctx.Err())
	}
	if st.Iters != 0 || st.AddedWire != 0 {
		t.Fatalf("cancelled repair reports work: %+v", st)
	}
	sameTree(t, "cancelled", tr, before)
}
