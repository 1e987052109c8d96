package core

import (
	"fmt"
	"math"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// ExhaustiveResult is the outcome of brute-force optimal assignment.
type ExhaustiveResult struct {
	BestCap   float64 // F, minimum feasible switched cap
	BestRules []int   // per-node rule indices achieving it
	Evaluated int     // complete assignments actually analyzed
	Pruned    int64   // partial assignments cut by the cap bound
	Feasible  bool    // whether any assignment met the constraints
}

// maxExhaustiveEdges bounds the search: 5 rule classes over more edges
// than this explodes past what a test or experiment should pay for.
const maxExhaustiveEdges = 12

// ExhaustiveOptimal finds the minimum-capacitance rule assignment of a
// *small* tree subject to the slew and skew bounds, by enumerating the
// full assignment space with branch-and-bound pruning on the (separable)
// capacitance objective. It exists to measure the greedy optimizer's
// optimality gap — experiment A4 — and as an oracle for tests; it is not
// part of the production flow.
//
// Feasibility uses the same full STA predicate the experiments report:
// no transition above maxSlew, skew at most maxSkew. Edge lengths are
// untouched (no snaking), so compare against Optimize(DisableRepair).
func ExhaustiveOptimal(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew, maxSlew, maxSkew float64) (*ExhaustiveResult, error) {
	var edges []int
	for i := range t.Nodes {
		if t.Nodes[i].Parent != ctree.NoNode {
			edges = append(edges, i)
		}
	}
	if len(edges) > maxExhaustiveEdges {
		return nil, fmt.Errorf("core: %d edges exceeds the exhaustive-search bound of %d", len(edges), maxExhaustiveEdges)
	}
	byCap := rulesByCap(te)
	cheapest := byCap[0]
	// Per-edge wire-cap contribution by rule, and the per-edge floor used
	// for the admissible bound.
	capOf := func(node, ri int) float64 {
		return te.WireC(t.Nodes[node].EdgeLen, ri)
	}
	minRemain := make([]float64, len(edges)+1)
	for i := len(edges) - 1; i >= 0; i-- {
		minRemain[i] = minRemain[i+1] + capOf(edges[i], cheapest)
	}

	saved := make([]int, len(t.Nodes))
	for i := range t.Nodes {
		saved[i] = t.Nodes[i].Rule
	}
	res := &ExhaustiveResult{BestCap: math.Inf(1)}

	// One shared timing engine across the whole enumeration: consecutive
	// complete assignments differ only in the deepest recursion levels, so
	// each analysis is an incremental update over a handful of edges — the
	// ideal workload for the dirty-region path.
	tim := sta.NewIncremental(te, lib)
	var rec func(idx int, partial float64)
	rec = func(idx int, partial float64) {
		if partial+minRemain[idx] >= res.BestCap {
			res.Pruned++
			return
		}
		if idx == len(edges) {
			an, err := tim.Analyze(t, inSlew)
			if err != nil {
				return
			}
			res.Evaluated++
			worst, _ := an.WorstSlew()
			if worst > maxSlew || an.Skew() > maxSkew {
				return
			}
			cap := an.TotalSwitchedCap()
			if cap < res.BestCap {
				res.BestCap = cap
				res.BestRules = make([]int, len(t.Nodes))
				for i := range t.Nodes {
					res.BestRules[i] = t.Nodes[i].Rule
				}
				res.Feasible = true
			}
			return
		}
		for _, ri := range byCap {
			t.Nodes[edges[idx]].Rule = ri
			tim.Touch(edges[idx])
			rec(idx+1, partial+capOf(edges[idx], ri))
		}
		t.Nodes[edges[idx]].Rule = saved[edges[idx]]
		tim.Touch(edges[idx])
	}
	rec(0, 0)

	// Restore the caller's assignment.
	for i := range t.Nodes {
		t.Nodes[i].Rule = saved[i]
	}
	return res, nil
}
