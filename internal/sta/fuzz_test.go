package sta_test

import (
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// FuzzIncrementalUpdate drives the dirty-region update with random edit
// batches and input slews, and requires every answer to be a fresh
// pass's, bit for bit, with a Summary equal to scans of it. The inputs
// pick the tree (its seed; a sink count clamped to 8–300; the 45 nm
// library, or its copy whose buffers share one input cap, where a resize
// leaves the stage above unchanged and the walk stops at its endpoints),
// the seed of the edits, up to 16 rounds of 0–8 edits each, and a slew
// schedule: a nonzero byte r moves round r's input slew to that many ps,
// clamped to 200.
func FuzzIncrementalUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, treeSeed int64, sinks int, equalCap bool, editSeed int64, rounds uint8, slews []byte) {
		te := tech.Tech45()
		lib := cell.Default45()
		if equalCap {
			lib = equalCapLib()
		}
		tree := synthTree(t, min(max(sinks, 8), 300), treeSeed, te, lib)
		rng := rand.New(rand.NewSource(editSeed))
		inc := sta.NewIncremental(te, lib)
		ref := sta.NewIncremental(te, lib)
		inSlew := sta.DefaultInSlew
		if _, err := inc.Analyze(tree, inSlew); err != nil {
			t.Fatal(err)
		}
		for r := range min(int(rounds), 16) {
			for range rng.Intn(9) {
				mutate(rng, tree, te, lib, inc)
			}
			if r < len(slews) && slews[r] > 0 {
				inSlew = float64(min(slews[r], 200)) * 1e-12
			}
			got, err := inc.Analyze(tree, inSlew)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Full(tree, inSlew, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareExact(t, "fuzz", tree, got, want)
			checkSummary(t, "fuzz", tree, te, inc, got)
		}
	})
}
