package core

import (
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// tinyTree builds a small buffered tree (few sinks → few edges) suitable
// for exhaustive search.
func tinyTree(t testing.TB, nSinks int, seed int64) (*ctree.Tree, *tech.Tech, *cell.Library) {
	t.Helper()
	te := tech.Tech45()
	lib := cell.Default45()
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, nSinks)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
			Cap: (1 + rng.Float64()) * 1e-15,
		}
	}
	res, err := cts.Build(sinks, geom.Point{X: 150, Y: 150}, te, lib, cts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Tree.SetAllRules(te.BlanketRule)
	return res.Tree, te, lib
}

func TestExhaustiveFindsFeasible(t *testing.T) {
	tr, te, lib := tinyTree(t, 4, 5)
	res, err := ExhaustiveOptimal(tr, te, lib, 40e-12, te.MaxSlew, te.MaxSkew)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("tiny tree must have a feasible assignment (blanket is one)")
	}
	if res.Evaluated == 0 {
		t.Fatal("nothing evaluated")
	}
	// The optimum can be no worse than the blanket assignment.
	an, err := sta.Analyze(tr, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCap > an.TotalSwitchedCap() {
		t.Errorf("optimal %.3f pF worse than blanket %.3f pF",
			res.BestCap*1e12, an.TotalSwitchedCap()*1e12)
	}
	// The returned assignment reproduces the reported cap and is legal.
	for i := range tr.Nodes {
		tr.Nodes[i].Rule = res.BestRules[i]
	}
	an2, err := sta.Analyze(tr, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if diff := an2.TotalSwitchedCap() - res.BestCap; diff > 1e-20 || diff < -1e-20 {
		t.Errorf("assignment does not reproduce BestCap: %g vs %g", an2.TotalSwitchedCap(), res.BestCap)
	}
	worst, _ := an2.WorstSlew()
	if worst > te.MaxSlew || an2.Skew() > te.MaxSkew {
		t.Error("reported optimum violates constraints")
	}
}

func TestExhaustiveRestoresTree(t *testing.T) {
	tr, te, lib := tinyTree(t, 3, 7)
	before := make([]int, len(tr.Nodes))
	for i := range tr.Nodes {
		before[i] = tr.Nodes[i].Rule
	}
	if _, err := ExhaustiveOptimal(tr, te, lib, 40e-12, te.MaxSlew, te.MaxSkew); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Nodes {
		if tr.Nodes[i].Rule != before[i] {
			t.Fatal("search must restore the caller's assignment")
		}
	}
}

func TestExhaustiveRejectsBigTrees(t *testing.T) {
	tr, te, lib := tinyTree(t, 30, 11)
	if _, err := ExhaustiveOptimal(tr, te, lib, 40e-12, te.MaxSlew, te.MaxSkew); err == nil {
		t.Error("big tree must be rejected")
	}
}

func TestGreedyNearOptimalOnTinyTrees(t *testing.T) {
	// The optimality-gap claim behind experiment A4: on exhaustively
	// solvable instances, the greedy lands within a few percent of the
	// true optimum under identical constraints.
	worstGap := 0.0
	for seed := int64(1); seed <= 6; seed++ {
		tr, te, lib := tinyTree(t, 4, seed)
		opt, err := ExhaustiveOptimal(tr, te, lib, 40e-12, te.MaxSlew, te.MaxSkew)
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Feasible {
			continue
		}
		greedy := tr.Clone()
		if _, err := Optimize(greedy, te, lib, Config{DisableRepair: true}); err != nil {
			t.Fatal(err)
		}
		an, err := sta.Analyze(greedy, te, lib, 40e-12)
		if err != nil {
			t.Fatal(err)
		}
		gap := an.TotalSwitchedCap()/opt.BestCap - 1
		if gap > worstGap {
			worstGap = gap
		}
		if gap < -1e-9 {
			// Greedy "better than optimal" would mean it broke a
			// constraint the oracle respected.
			worst, _ := an.WorstSlew()
			if worst <= te.MaxSlew && an.Skew() <= te.MaxSkew {
				t.Fatalf("seed %d: greedy %.4f pF beats 'optimal' %.4f pF legally — oracle bug",
					seed, an.TotalSwitchedCap()*1e12, opt.BestCap*1e12)
			}
		}
	}
	if worstGap > 0.10 {
		t.Errorf("greedy optimality gap %.1f%% exceeds 10%%", worstGap*100)
	}
	t.Logf("worst greedy gap over tiny instances: %.2f%%", worstGap*100)
}
