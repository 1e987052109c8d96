package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/rctree"
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

// refEval is eval as it was before reset recorded the stage's topology and
// the scratch its per-rule parasitics: it derives every edge's R and C
// through te.WireR and te.WireC, each C twice, and looks up each node's
// parent, kind and children again. local maps a tree node to its index in
// se.nodes plus one. It writes down and elm into the given arrays.
func refEval(se *stageEval, local []int, down, elm []float64, inSlew float64, arr []float64) stageState {
	t, te := se.t, se.te
	for i := len(se.nodes) - 1; i >= 0; i-- {
		v := se.nodes[i]
		nd := &t.Nodes[v]
		ec := te.WireC(nd.EdgeLen, nd.Rule)
		d := ec / 2
		switch {
		case nd.BufIdx != ctree.NoBuf:
			d += se.lib.Buffers[nd.BufIdx].InputCap
		case t.IsLeaf(v):
			d += t.Sinks[nd.SinkIdx].Cap
		default:
			for _, k := range nd.Kids {
				if k == ctree.NoNode {
					continue
				}
				j := local[k] - 1
				d += down[j] + te.WireC(t.Nodes[k].EdgeLen, t.Nodes[k].Rule)/2
			}
		}
		down[i] = d
	}
	st := stageState{arr: arr}
	for _, k := range t.Nodes[se.driver].Kids {
		if k == ctree.NoNode {
			continue
		}
		j := local[k] - 1
		st.stageCap += down[j] + te.WireC(t.Nodes[k].EdgeLen, t.Nodes[k].Rule)/2
	}
	b := &se.lib.Buffers[t.Nodes[se.driver].BufIdx]
	st.bufDelay = b.DelayAt(inSlew, st.stageCap)
	st.outSlew = b.OutSlewAt(inSlew, st.stageCap)
	for i, v := range se.nodes {
		nd := &t.Nodes[v]
		base := 0.0
		if p := nd.Parent; p != se.driver {
			base = elm[local[p]-1]
		}
		elm[i] = base + te.WireR(nd.EdgeLen, nd.Rule)*down[i]
		st.arr[i] = st.bufDelay + elm[i]
		if se.endpoint[i] {
			if s := math.Hypot(st.outSlew, rctree.Ln9*elm[i]); s > st.worstSlew {
				st.worstSlew = s
			}
		}
	}
	if len(se.nodes) == 0 {
		st.worstSlew = st.outSlew
	}
	return st
}

// TestEvalMatchesReference: on every stage of seeded trees, under random
// rule assignments and random driver sizes, eval returns the reference's
// stage cap, delay, slews and arrivals bit for bit, and leaves the same
// downstream caps and Elmore delays in its scratch. The same trees with
// every buffer but the root's removed make one stage of hundreds of
// edges, and a deep chain makes one stage of a thousand.
func TestEvalMatchesReference(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	rng := rand.New(rand.NewSource(21))
	var trees []*ctree.Tree
	for seed := int64(1); seed <= 6; seed++ {
		tr := buildBlanket(t, 80+60*int(seed), seed, 3000, te, lib)
		flat := tr.Clone()
		for v := range flat.Nodes {
			if v != flat.Root {
				flat.Nodes[v].BufIdx = ctree.NoBuf
			}
		}
		trees = append(trees, tr, flat)
	}
	trees = append(trees, deepChain(1000, te))
	stages, evals := 0, 0
	for ti, tr := range trees {
		se := newStageScratch(tr, te, lib)
		local := make([]int, len(tr.Nodes))
		for _, u := range se.drivers {
			se.reset(u)
			for i, v := range se.nodes {
				local[v] = i + 1
			}
			n := len(se.nodes)
			down, elm, arr := make([]float64, n), make([]float64, n), make([]float64, n)
			for round := 0; round < 6; round++ {
				if round > 0 {
					for _, v := range se.nodes {
						tr.Nodes[v].Rule = rng.Intn(te.NumRules())
					}
					tr.Nodes[u].BufIdx = rng.Intn(len(lib.Buffers))
				}
				inSlew := (20 + 60*rng.Float64()) * 1e-12
				want := refEval(se, local, down, elm, inSlew, arr)
				got := se.eval(inSlew, se.arr[round%2])
				if !sameBits([]float64{got.stageCap, got.bufDelay, got.outSlew, got.worstSlew},
					[]float64{want.stageCap, want.bufDelay, want.outSlew, want.worstSlew}) ||
					!sameBits(got.arr, want.arr) || !sameBits(se.down, down) || !sameBits(se.elm, elm) {
					t.Fatalf("tree %d stage %d round %d: eval %+v, reference %+v", ti, u, round, got, want)
				}
				evals++
			}
			for _, v := range se.nodes {
				local[v] = 0
			}
			stages++
		}
	}
	t.Logf("%d stages, %d evaluations", stages, evals)
}
