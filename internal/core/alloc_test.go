package core

import (
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/tech"
)

// TestRepairSkewAllocBound guards the hot-path refactor that hoisted
// the repair loop's working arrays (stage ownership, driver
// resistances, slew budgets, snapshots) out of the iteration loop and
// replaced the per-iteration driver map with the STA result's Drivers
// slice. Allocation count per RepairSkew call must stay small and, in
// particular, must not scale with iteration count — each measured run
// resets the tree and repairs from scratch across several iterations,
// so a regression that allocates per iteration (or per driver) blows
// through the bound immediately.
func TestRepairSkewAllocBound(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 400, 9, 3500, te, lib)
	// Deterministically unbalance the calibrated tree so the repair loop
	// has real work: stagger leaf-edge lengths by a few tens of microns.
	for i := range tr.Nodes {
		if tr.IsLeaf(i) {
			tr.Nodes[i].EdgeLen += float64(i%7) * 12
		}
	}
	base := make([]float64, len(tr.Nodes))
	for i := range tr.Nodes {
		base[i] = tr.Nodes[i].EdgeLen
	}
	reset := func() {
		for i := range tr.Nodes {
			tr.Nodes[i].EdgeLen = base[i]
		}
	}
	var iters int
	run := func() RepairStats {
		reset()
		st, err := RepairSkew(tr, te, lib, 40e-12, te.MaxSkew, 30)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(); st.Iters < 2 {
		t.Skipf("repair converged in %d iterations — workload too easy to guard the loop", st.Iters)
	} else {
		iters = st.Iters
	}
	allocs := testing.AllocsPerRun(10, func() { run() })
	// The repair loop's own working arrays allocate once per call, not
	// per iteration; the remaining per-iteration cost is the incremental
	// engine's dirty-driver heap, whose container/heap interface boxes
	// one value per touched driver. That makes the steady total roughly
	// (touched drivers) × iterations — measured ≈ 27k objects for this
	// 400-sink workload over 6 iterations. The bound is ~1.7× measured:
	// tight enough that an O(n²) allocation pattern (node-pair scaling ≈
	// 640k) or a reintroduced per-node map in the loop body trips it,
	// loose enough to absorb engine-internal jitter.
	const allocCeil = 45000
	if allocs > allocCeil {
		t.Errorf("RepairSkew allocates %.0f objects/run over %d iterations, want ≤ %d", allocs, iters, allocCeil)
	}
}

// TestOptimizeRegionAllocScale pins the allocation *scaling* of the
// per-region optimize path the hierarchical flow fans out: allocation
// count per sink must not grow with region size. O(n²) (or per-node
// map) regressions in the optimizer hot loop show up as a superlinear
// jump long before wall-clock noise would.
func TestOptimizeRegionAllocScale(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation scaling test skipped in -short mode")
	}
	te := tech.Tech45()
	lib := cell.Default45()
	perSink := func(n int) float64 {
		tr := buildBlanket(t, n, int64(n), 3000, te, lib)
		base := make([]int, len(tr.Nodes))
		for i := range tr.Nodes {
			base[i] = tr.Nodes[i].Rule
		}
		edges := make([]float64, len(tr.Nodes))
		for i := range tr.Nodes {
			edges[i] = tr.Nodes[i].EdgeLen
		}
		allocs := testing.AllocsPerRun(3, func() {
			for i := range tr.Nodes {
				tr.Nodes[i].Rule = base[i]
				tr.Nodes[i].EdgeLen = edges[i]
			}
			if _, err := Optimize(tr, te, lib, Config{}); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(n)
	}
	small := perSink(200)
	big := perSink(800)
	// Linear behavior keeps allocations-per-sink flat; quadratic growth
	// would quadruple it between 200 and 800 sinks. 2× allows constant
	// overheads to wash out without masking a real blowup.
	if big > 2*small+1 {
		t.Errorf("optimize allocations/sink grew from %.1f (200 sinks) to %.1f (800 sinks) — superlinear",
			small, big)
	}
}
