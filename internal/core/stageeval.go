package core

import (
	"math"
	"slices"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/rctree"
	"smartndr/internal/tech"
)

// stageEval evaluates one buffer stage in isolation: the RC tree between a
// driver buffer's output and the next buffer inputs / sinks. Candidate
// rule changes are scored by re-evaluating only this stage — O(stage size)
// instead of O(tree) — which is what makes the greedy downgrade scale.
//
// One stageEval is the scratch of a whole Optimize call: reset moves it
// from stage to stage, and every slice it holds is sized once, for the
// tree's largest stage, so the sweeps allocate nothing. Optimize only
// re-rules edges, lengthens them and resizes buffers, so the tree's node
// set and its buffered nodes stay fixed for the scratch's lifetime.
//
// What a candidate cannot change is derived once: reset records the
// stage's topology and endpoint pin caps, and the scratch holds each
// rule's resistance and capacitance per micron. eval then reads only the
// rules and lengths of the stage's edges.
type stageEval struct {
	t      *ctree.Tree
	te     *tech.Tech
	lib    *cell.Library
	driver int
	// drivers lists the tree's buffered nodes in parents-first order.
	drivers []int
	// rPerUm and cPerUm hold te.Layer.RPerUm and CPerUm of each rule.
	rPerUm, cPerUm []float64

	// The stage, indexed parallel to nodes. nodes lists its nodes (driver
	// excluded) in parent-before-child order; the driver's children come
	// first. endpoint marks buffer inputs and sink pins, and pin holds the
	// cap each endpoint presents. par is the local index of a node's
	// parent, -1 under the driver; kids holds an inner node's children's
	// local indices in Kids order, -1 where a slot is empty (an endpoint
	// has none in the stage). driverKids is kids for the driver.
	nodes      []int
	endpoint   []bool
	pin        []float64
	par        []int
	kids       [][2]int
	driverKids [2]int

	// scratch, indexed parallel to nodes:
	edgeR, edgeC []float64 // feeding-edge parasitics under the current rules
	down         []float64 // π-lumped downstream cap within stage
	elm          []float64 // Elmore from driver output
	// arr holds two arrival buffers: the current state's and a
	// candidate's (see stageState.arr).
	arr [2][]float64

	stack  []stageFrame // DFS stack of reset
	gains  []nodeGain   // candidateOrder's sort keys
	order  []int        // candidateOrder's result
	shifts []shift      // applyShifts' batch
}

// stageFrame is a node on reset's walk: its parent's local index (-1 for
// the driver) and its slot among the parent's Kids.
type stageFrame struct{ v, par, slot int }

// stageState is one evaluation outcome.
type stageState struct {
	stageCap  float64
	bufDelay  float64
	outSlew   float64
	worstSlew float64 // max transition over endpoints
	// arr[i] is the arrival at nodes[i] relative to the driver *input*
	// (buffer delay + wire Elmore); only endpoint entries are meaningful.
	// It aliases the buffer eval was given.
	arr []float64
}

// newStageScratch returns the stage scratch for tree t, positioned on no
// stage; reset selects one. Its per-stage arrays are sized for the
// tree's largest stage, two slabs and a few slices in all.
func newStageScratch(t *ctree.Tree, te *tech.Tech, lib *cell.Library) *stageEval {
	se := &stageEval{t: t, te: te, lib: lib, drivers: stageDrivers(t)}
	m := 0
	for _, u := range se.drivers {
		m = max(m, se.stageSize(u))
	}
	nr := te.NumRules()
	fs := make([]float64, 2*nr+7*m)
	next := func(k int) []float64 {
		s := fs[:k:k]
		fs = fs[k:]
		return s
	}
	se.rPerUm, se.cPerUm = next(nr), next(nr)
	for ri := range nr {
		se.rPerUm[ri] = te.Layer.RPerUm(te.Rule(ri))
		se.cPerUm[ri] = te.Layer.CPerUm(te.Rule(ri))
	}
	se.pin, se.edgeR, se.edgeC, se.down, se.elm = next(m)[:0], next(m)[:0], next(m)[:0], next(m)[:0], next(m)[:0]
	se.arr[0], se.arr[1] = next(m)[:0], next(m)[:0]
	is := make([]int, 3*m)
	se.nodes, se.par, se.order = is[0:0:m], is[m:m:2*m], is[2*m:2*m:3*m]
	se.endpoint = make([]bool, 0, m)
	se.kids = make([][2]int, 0, m)
	se.gains = make([]nodeGain, 0, m)
	se.shifts = make([]shift, 0, m)
	return se
}

// stageSize counts the nodes of the stage driven by u (u excluded), on
// reset's stack.
func (se *stageEval) stageSize(u int) int {
	n := 0
	stack := se.pushKids(se.stack[:0], u, -1)
	for len(stack) > 0 {
		v := stack[len(stack)-1].v
		stack = stack[:len(stack)-1]
		n++
		if se.t.Nodes[v].BufIdx == ctree.NoBuf && !se.t.IsLeaf(v) {
			stack = se.pushKids(stack, v, -1)
		}
	}
	se.stack = stack
	return n
}

// reset collects the stage rooted at the buffered node driver.
func (se *stageEval) reset(driver int) {
	t := se.t
	se.driver = driver
	se.driverKids = [2]int{-1, -1}
	se.nodes, se.endpoint, se.pin = se.nodes[:0], se.endpoint[:0], se.pin[:0]
	se.par, se.kids = se.par[:0], se.kids[:0]
	// Explicit-stack DFS (kids pushed in reverse so they pop in Kids
	// order): same visit order as the recursive form, but safe on
	// degenerate serial chains that would otherwise grow the stack one
	// frame per node.
	stack := se.pushKids(se.stack[:0], driver, -1)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := len(se.nodes)
		if f.par < 0 {
			se.driverKids[f.slot] = i
		} else {
			se.kids[f.par][f.slot] = i
		}
		nd := &t.Nodes[f.v]
		pin := 0.0
		switch {
		case nd.BufIdx != ctree.NoBuf:
			pin = se.lib.Buffers[nd.BufIdx].InputCap
		case t.IsLeaf(f.v):
			pin = t.Sinks[nd.SinkIdx].Cap
		}
		end := nd.BufIdx != ctree.NoBuf || t.IsLeaf(f.v)
		se.nodes = append(se.nodes, f.v)
		se.endpoint = append(se.endpoint, end)
		se.pin = append(se.pin, pin)
		se.par = append(se.par, f.par)
		se.kids = append(se.kids, [2]int{-1, -1})
		if !end {
			stack = se.pushKids(stack, f.v, i)
		}
	}
	se.stack = stack
	n := len(se.nodes)
	se.edgeR = slices.Grow(se.edgeR[:0], n)[:n]
	se.edgeC = slices.Grow(se.edgeC[:0], n)[:n]
	se.down = slices.Grow(se.down[:0], n)[:n]
	se.elm = slices.Grow(se.elm[:0], n)[:n]
	for i := range se.arr {
		se.arr[i] = slices.Grow(se.arr[i][:0], n)[:n]
	}
}

// pushKids pushes v's children onto stack in reverse Kids order, each
// with par as its parent's local index.
func (se *stageEval) pushKids(stack []stageFrame, v, par int) []stageFrame {
	kids := se.t.Nodes[v].Kids
	for i := len(kids) - 1; i >= 0; i-- {
		if kids[i] != ctree.NoNode {
			stack = append(stack, stageFrame{kids[i], par, i})
		}
	}
	return stack
}

// eval recomputes the stage under the tree's current rule assignment for
// the given transition at the driver's input pin. The arrivals are
// written into arr, one of se.arr, which the returned state then aliases.
//
// Each edge's C is computed once and read again in its parent's sum; every
// value is the expression tech.Tech's WireR and WireC evaluate, over the
// same operands, in the same order.
func (se *stageEval) eval(inSlew float64, arr []float64) stageState {
	t := se.t
	edgeR, edgeC, down, elm := se.edgeR, se.edgeC, se.down, se.elm
	// Edge parasitics and downstream caps, children-before-parents
	// (reverse of `nodes`).
	for i := len(se.nodes) - 1; i >= 0; i-- {
		nd := &t.Nodes[se.nodes[i]]
		c := se.cPerUm[nd.Rule] * nd.EdgeLen
		edgeR[i] = se.rPerUm[nd.Rule] * nd.EdgeLen
		edgeC[i] = c
		d := c / 2
		if se.endpoint[i] {
			d += se.pin[i]
		} else {
			for _, j := range se.kids[i] {
				if j >= 0 {
					d += down[j] + edgeC[j]/2
				}
			}
		}
		down[i] = d
	}
	// Stage load seen by the driver.
	st := stageState{arr: arr}
	for _, j := range se.driverKids {
		if j >= 0 {
			st.stageCap += down[j] + edgeC[j]/2
		}
	}
	b := &se.lib.Buffers[t.Nodes[se.driver].BufIdx]
	st.bufDelay = b.DelayAt(inSlew, st.stageCap)
	st.outSlew = b.OutSlewAt(inSlew, st.stageCap)
	// Elmore, parents-before-children (forward order).
	for i := range se.nodes {
		base := 0.0
		if p := se.par[i]; p >= 0 {
			base = elm[p]
		}
		elm[i] = base + edgeR[i]*down[i]
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

// maxEndpointShift returns the largest |arrival delta| over endpoints
// between two states of the same stage.
func (se *stageEval) maxEndpointShift(a, b stageState) float64 {
	worst := 0.0
	for i := range se.nodes {
		if !se.endpoint[i] {
			continue
		}
		if d := math.Abs(a.arr[i] - b.arr[i]); d > worst {
			worst = d
		}
	}
	if len(se.nodes) == 0 {
		worst = math.Abs((a.bufDelay) - (b.bufDelay))
	}
	return worst
}

// stageDrivers returns all buffered nodes in parents-first order.
func stageDrivers(t *ctree.Tree) []int {
	var out []int
	t.PreOrder(func(i int) {
		if t.Nodes[i].BufIdx != ctree.NoBuf {
			out = append(out, i)
		}
	})
	return out
}
