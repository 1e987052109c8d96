package core_test

import (
	"context"
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
	if _, err := core.RepairToTargets(context.Background(), base, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
		t.Fatal(err)
	}
	testutil.PinAllocs(t, "Optimize", 5, 158, func() {
		if _, err := core.Optimize(base.Clone(), te, lib, core.Config{EM: &em}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRepairSkewAllocs pins BenchmarkRepairSkew's operation: skew repair
// of a 300-sink blanket tree through RepairToTargets, the clone included.
func TestRepairSkewAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := core.BuildBlanket(t, 300, 55, 3000, te, lib)
	testutil.PinAllocs(t, "RepairSkew", 5, 48, func() {
		if _, err := core.RepairToTargets(context.Background(), base.Clone(), te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRepairSkewAllocBound pins the one gated workload whose repair loop
// iterates: a 400-sink blanket tree with leaf edges staggered by 0–72 µm,
// which RepairToTargets needs several iterations to balance. Every
// iteration edits edges, so the engine's full pass runs on the edited
// tree each time, and the loop's own arrays are allocated once per call.
// A count that grows with the iterations shows up here first. The guard
// keeps the workload honest: a tree that balances in one iteration would
// exercise none of that.
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
		st, err := core.RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(); st.Iters < 2 {
		t.Skipf("repair converged in %d iterations — workload too easy to guard the loop", st.Iters)
	}
	testutil.PinAllocs(t, "RepairSkew(400 sinks, staggered)", 5, 62, func() { run() })
}
