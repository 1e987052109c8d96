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
	fr := &FlowRunner{}
	req := &FlowRequest{Bench: "cns01", Scheme: "smart-ndr"}
	testutil.PinAllocs(t, "FlowRunner.FlowKey", 5, 23, func() {
		if _, err := fr.FlowKey(req); err != nil {
			t.Fatal(err)
		}
	})
}
