package smartndr_test

import (
	"testing"

	"smartndr"
	"smartndr/internal/testutil"
	"smartndr/internal/workload"
)

// Exact allocation gates (testutil.PinAllocs) on the facade's build,
// apply and Monte Carlo paths. The apply and Monte Carlo pins run the
// workloads of BenchmarkFlowSmart and BenchmarkMonteCarlo100.

// benchTree builds the tree the facade benchmarks draw: n uniform sinks
// on a 4000×3200 µm die, seed 7.
func benchTree(t *testing.T, flow *smartndr.Flow, n int) *smartndr.Built {
	t.Helper()
	bm := testutil.Gen(t, smartndr.BenchSpec{
		Name: "bench", Dist: workload.Uniform, Sinks: n,
		DieX: 4000, DieY: 3200, CapMin: 1e-15, CapMax: 4e-15, Seed: 7,
	})
	built, err := flow.Build(bm.Sinks, smartndr.Point{X: 2000, Y: 1600})
	if err != nil {
		t.Fatal(err)
	}
	return built
}

// TestFlowBuildAllocs pins Flow.Build on cns01: synthesis (cts.Build)
// plus the blanket assignment.
func TestFlowBuildAllocs(t *testing.T) {
	bm := testutil.Gen(t, smartndr.Suite()[0])
	flow := smartndr.NewFlow(nil)
	testutil.PinAllocs(t, "Flow.Build(cns01)", 5, 109, func() {
		if _, err := flow.Build(bm.Sinks, bm.Src); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFlowSmartAllocs pins Flow.Apply of the smart scheme to the built
// 1000-sink tree.
func TestFlowSmartAllocs(t *testing.T) {
	flow := smartndr.NewFlow(nil)
	built := benchTree(t, flow, 1000)
	testutil.PinAllocs(t, "Flow.Apply(smart)", 5, 264, func() {
		if _, err := flow.Apply(built, smartndr.SchemeSmart); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMonteCarlo100Allocs pins 100 variation trials on one worker over
// the built 500-sink tree.
func TestMonteCarlo100Allocs(t *testing.T) {
	flow := smartndr.NewFlow(nil)
	built := benchTree(t, flow, 500)
	p := smartndr.VariationParams{
		WidthSigma: 0.004, BufSigma: 0.03, SpatialFrac: 0.6,
		Samples: 100, Seed: 3, Workers: 1,
	}
	testutil.PinAllocs(t, "Flow.MonteCarlo(100 trials)", 3, 164, func() {
		if _, err := flow.MonteCarlo(built.Tree, p); err != nil {
			t.Fatal(err)
		}
	})
}
