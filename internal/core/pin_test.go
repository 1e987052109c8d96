package core_test

import (
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/core"
	"smartndr/internal/tech"
	"smartndr/internal/testutil"
)

// TestOptimizeAllocs pins BenchmarkOptimize's operation: the EM-aware
// optimization of a repaired 300-sink blanket tree, the clone it runs on
// included.
func TestOptimizeAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	em := core.DefaultEMLimit()
	base := core.BuildBlanket(t, 300, 55, 3000, te, lib)
	if _, err := core.RepairSkew(base, te, lib, 40e-12, te.MaxSkew, 30); err != nil {
		t.Fatal(err)
	}
	testutil.PinAllocs(t, "Optimize", 5, 170, func() {
		if _, err := core.Optimize(base.Clone(), te, lib, core.Config{EM: &em}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRepairSkewAllocs pins BenchmarkRepairSkew's operation: skew repair
// of a 300-sink blanket tree on a fresh engine, the clone included.
func TestRepairSkewAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := core.BuildBlanket(t, 300, 55, 3000, te, lib)
	testutil.PinAllocs(t, "RepairSkew", 5, 60, func() {
		if _, err := core.RepairSkew(base.Clone(), te, lib, 40e-12, te.MaxSkew, 30); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRepairSkewAllocBound pins the one gated workload whose repair loop
// iterates: a 400-sink blanket tree with leaf edges staggered by 0–72 µm,
// which RepairSkew needs several iterations to balance. Every iteration
// edits edges, so the engine's dirty-region update (its stage rebuilds
// and its dirty-driver heap) runs each time, and the loop's own arrays
// are allocated once per call. A count that grows with the iterations
// shows up here first. The guard keeps the workload honest: a tree that
// balances in one iteration would exercise none of that.
func TestRepairSkewAllocBound(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := core.BuildBlanket(t, 400, 9, 3500, te, lib)
	for i := range tr.Nodes {
		if tr.IsLeaf(i) {
			tr.Nodes[i].EdgeLen += float64(i%7) * 12
		}
	}
	base := make([]float64, len(tr.Nodes))
	for i := range tr.Nodes {
		base[i] = tr.Nodes[i].EdgeLen
	}
	run := func() core.RepairStats {
		for i := range tr.Nodes {
			tr.Nodes[i].EdgeLen = base[i]
		}
		st, err := core.RepairSkew(tr, te, lib, 40e-12, te.MaxSkew, 30)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(); st.Iters < 2 {
		t.Skipf("repair converged in %d iterations — workload too easy to guard the loop", st.Iters)
	}
	testutil.PinAllocs(t, "RepairSkew(400 sinks, staggered)", 5, 127, func() { run() })
}
