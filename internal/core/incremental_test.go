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
	if _, err := RepairSkew(base, te, lib, 40e-12, te.MaxSkew, 30); err != nil {
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
	if _, err := RepairSkew(base, te, lib, 40e-12, te.MaxSkew, 30); err != nil {
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

// BenchmarkRepairSkew measures the skew-repair loop through the shared
// incremental engine; BenchmarkRepairSkewFullSTA answers every query with
// a full pass.
func BenchmarkRepairSkew(b *testing.B) {
	benchRepairSkew(b, false)
}

func BenchmarkRepairSkewFullSTA(b *testing.B) {
	benchRepairSkew(b, true)
}

func benchRepairSkew(b *testing.B, full bool) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := buildBlanket(b, 300, 55, 3000, te, lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := base.Clone()
		var tim timer
		if full {
			tim = newFullTimer(te, lib)
		} else {
			tim = sta.NewIncremental(te, lib)
		}
		b.StartTimer()
		sc := newRepairScratch(len(tr.Nodes))
		if _, err := repairToTargets(tim, &sc, tr, te, lib, 40e-12, nil, te.MaxSkew, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairSkewRollback is skew repair on TestRepairSkewAllocBound's
// staggered 400-sink tree, which rolls back five of its six iterations:
// the workload where keeping the accepted state's plan saves the most.
func BenchmarkRepairSkewRollback(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := staggeredTree(b, te, lib)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := base.Clone()
		b.StartTimer()
		if _, err := RepairSkew(tr, te, lib, 40e-12, te.MaxSkew, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairSkewRollbackFullSTA is BenchmarkRepairSkewRollback with
// every state timed by a full pass: the pair prices the repair loop's
// incremental engine against the full pass on a workload that iterates.
func BenchmarkRepairSkewRollbackFullSTA(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := staggeredTree(b, te, lib)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := base.Clone()
		b.StartTimer()
		sc := newRepairScratch(len(tr.Nodes))
		if _, err := repairToTargets(newFullTimer(te, lib), &sc, tr, te, lib, 40e-12, nil, te.MaxSkew, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRepairSkewParallelMatchesSerial: the balance's entry point, whose
// engine times every state with a full pass on its workers, returns
// RepairSkew's stats and tree bit for bit at 1, 2, 3 and 8 workers, on
// stitched trees, whose balances iterate and roll back, and on the
// staggered tree.
func TestRepairSkewParallelMatchesSerial(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	for _, c := range []struct {
		name string
		tree *ctree.Tree
	}{
		{"stitched-smart", stitchedTree(t, 3000, 400, 2, true, te, lib)},
		{"stitched-blanket", stitchedTree(t, 5000, 300, 3, false, te, lib)},
		{"staggered", staggeredTree(t, te, lib)},
	} {
		want := c.tree.Clone()
		stWant, err := RepairSkew(want, te, lib, 40e-12, te.MaxSkew, 40)
		if err != nil {
			t.Fatal(err)
		}
		if stWant.Iters < 2 || stWant.Rollbacks == 0 {
			t.Fatalf("%s: balance ran %d iterations, %d rolled back — too few to compare the engines", c.name, stWant.Iters, stWant.Rollbacks)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := c.tree.Clone()
			st, err := RepairSkewParallel(context.Background(), got, te, lib, 40e-12, te.MaxSkew, 40, workers)
			if err != nil {
				t.Fatal(err)
			}
			if st != stWant {
				t.Errorf("%s at %d workers: stats %+v, serial %+v", c.name, workers, st, stWant)
			}
			sameTree(t, c.name, got, want)
		}
	}
}

// TestRepairSkewParallelCancelled: with its context already cancelled,
// the balance returns the context's error before timing anything and
// leaves every edge length as it was.
func TestRepairSkewParallelCancelled(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := staggeredTree(t, te, lib)
	before := tr.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RepairSkewParallel(ctx, tr, te, lib, 40e-12, te.MaxSkew, 40, 2)
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled balance returned %v, want %v", err, ctx.Err())
	}
	if st.Iters != 0 || st.AddedWire != 0 {
		t.Fatalf("cancelled balance reports work: %+v", st)
	}
	sameTree(t, "cancelled", tr, before)
}
