package testutil

import "testing"

// PinAllocs is an exact allocation gate: it fails unless the fewest
// objects fn allocates in any of runs measured runs (testing.AllocsPerRun
// of one run each, after its warm-up) is exactly want. A map's growth
// depends on the process's random hash seed, so a single run can exceed
// the path's floor by a few objects; the floor itself is deterministic.
// A rise is a regression; a fall is re-pinned in the change that earns
// it. It skips under the race detector, which changes allocation counts.
func PinAllocs(t *testing.T, name string, runs int, want float64, fn func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	least := testing.AllocsPerRun(1, fn)
	for i := 1; i < runs; i++ {
		least = min(least, testing.AllocsPerRun(1, fn))
	}
	if least != want {
		t.Errorf("%s allocates %.0f objects per run, pinned at %.0f (re-pin a fall, fix a rise)", name, least, want)
	}
}
