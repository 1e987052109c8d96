package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/tech"
)

// refCandidateOrder is candidateOrder as it was written on package sort:
// the reference for the precomputed keys and slices.SortFunc.
func refCandidateOrder(se *stageEval, o Order, byCap []int) []int {
	out := append([]int(nil), se.nodes...)
	switch o {
	case ByIndex:
		sort.Ints(out)
	case ByReverse:
		sort.Sort(sort.Reverse(sort.IntSlice(out)))
	default:
		cheapest := byCap[0]
		gain := func(v int) float64 {
			nd := &se.t.Nodes[v]
			return nd.EdgeLen * (se.te.Layer.CPerUm(se.te.Rule(nd.Rule)) -
				se.te.Layer.CPerUm(se.te.Rule(cheapest)))
		}
		sort.Slice(out, func(a, b int) bool { return gain(out[a]) > gain(out[b]) })
	}
	return out
}

// TestCandidateOrderMatchesSortSlice: every stage's candidates come out in
// the reference's order under all three orders, including the order among
// tied gains, which decides the edge the greedy tries first. The stages
// come from seeded blanket trees with random rules and lengths rounded to
// 10 µm, so gains tie often (every edge already on the cheapest rule
// gains 0). The same trees with every buffer but the root's removed make
// one stage of hundreds of edges, which takes pdqsort past its
// insertion-sort cutoff.
func TestCandidateOrderMatchesSortSlice(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	byCap := rulesByCap(te)
	ties, wide := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		tr := buildBlanket(t, 100+50*int(seed), seed, 3000, te, lib)
		rng := rand.New(rand.NewSource(seed))
		for v := range tr.Nodes {
			nd := &tr.Nodes[v]
			nd.Rule = rng.Intn(te.NumRules())
			nd.EdgeLen = math.Round(nd.EdgeLen/10) * 10
		}
		flat := tr.Clone()
		for v := range flat.Nodes {
			if v != flat.Root {
				flat.Nodes[v].BufIdx = ctree.NoBuf
			}
		}
		for _, tree := range []*ctree.Tree{tr, flat} {
			se := newStageScratch(tree, te, lib)
			for _, u := range se.drivers {
				se.reset(u)
				for _, o := range []Order{BySensitivity, ByIndex, ByReverse} {
					want := refCandidateOrder(se, o, byCap)
					if got := se.candidateOrder(o, byCap); !slices.Equal(got, want) {
						t.Fatalf("seed %d stage %d, %v: order %v, reference %v", seed, u, o, got, want)
					}
				}
				if len(se.nodes) > 12 {
					wide++
				}
				g := se.gains
				for i := 1; i < len(g); i++ {
					if g[i].g == g[i-1].g {
						ties++
					}
				}
			}
		}
	}
	if ties == 0 || wide == 0 {
		t.Fatalf("workload too easy: %d tied neighbours, %d stages over 12 edges", ties, wide)
	}
	t.Logf("%d tied neighbours, %d stages over 12 edges", ties, wide)
}
