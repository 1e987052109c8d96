package core

import (
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/tech"
)

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
