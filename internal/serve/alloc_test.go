package serve

import (
	"testing"

	"smartndr/internal/testutil"
)

// TestFlowKeyAllocs pins the allocations of FlowRunner.FlowKey on a
// cns01 request: the content key every hit, miss and batch item computes
// before admission. The shared default library's memoized JSON keeps it
// from re-generating and re-marshaling the library. A rise fails; a fall
// is re-pinned with the change that earns it.
func TestFlowKeyAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	fr := &FlowRunner{}
	req := &FlowRequest{Bench: "cns01", Scheme: "smart-ndr"}
	if _, err := fr.FlowKey(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := fr.FlowKey(req); err != nil {
			t.Fatal(err)
		}
	})
	const ceil = 23
	if allocs > ceil {
		t.Errorf("FlowRunner.FlowKey allocates %.0f objects, ceiling %d", allocs, ceil)
	}
	t.Logf("allocs: FlowKey %.0f", allocs)
}
