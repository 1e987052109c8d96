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
// from stage to stage, and every slice it holds is reused, so the sweeps
// allocate nothing once the largest stage has been seen. Optimize only
// re-rules edges, lengthens them and resizes buffers, so the tree's node
// set and its buffered nodes stay fixed for the scratch's lifetime.
type stageEval struct {
	t      *ctree.Tree
	te     *tech.Tech
	lib    *cell.Library
	driver int
	// drivers lists the tree's buffered nodes in parents-first order.
	drivers []int
	// nodes lists the stage's nodes (driver excluded) in parent-before-
	// child order; the driver's children come first.
	nodes []int
	// endpoint[i] marks nodes[i] as a stage endpoint (buffer input or
	// sink pin).
	endpoint []bool
	// local[v] is the index of tree node v in nodes, plus one; 0 means v
	// is not in the stage. Only the current stage's entries are set.
	local []int

	// scratch, indexed parallel to nodes:
	down []float64 // π-lumped downstream cap within stage
	elm  []float64 // Elmore from driver output
	// arr holds two arrival buffers: the current state's and a
	// candidate's (see stageState.arr).
	arr [2][]float64

	stack []int      // DFS stack of reset
	gains []nodeGain // candidateOrder's sort keys
	order []int      // candidateOrder's result
}

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
// stage; reset selects one.
func newStageScratch(t *ctree.Tree, te *tech.Tech, lib *cell.Library) *stageEval {
	return &stageEval{t: t, te: te, lib: lib, drivers: stageDrivers(t), local: make([]int, len(t.Nodes))}
}

// reset collects the stage rooted at the buffered node driver.
func (se *stageEval) reset(driver int) {
	for _, v := range se.nodes {
		se.local[v] = 0
	}
	se.driver = driver
	se.nodes, se.endpoint = se.nodes[:0], se.endpoint[:0]
	// Explicit-stack DFS (kids pushed in reverse so they pop in Kids
	// order): same visit order as the recursive form, but safe on
	// degenerate serial chains that would otherwise grow the stack one
	// frame per node.
	stack := se.pushKids(se.stack[:0], driver)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		se.nodes = append(se.nodes, k)
		se.local[k] = len(se.nodes)
		end := se.t.Nodes[k].BufIdx != ctree.NoBuf || se.t.IsLeaf(k)
		se.endpoint = append(se.endpoint, end)
		if !end {
			stack = se.pushKids(stack, k)
		}
	}
	se.stack = stack
	n := len(se.nodes)
	se.down = slices.Grow(se.down[:0], n)[:n]
	se.elm = slices.Grow(se.elm[:0], n)[:n]
	for i := range se.arr {
		se.arr[i] = slices.Grow(se.arr[i][:0], n)[:n]
	}
}

// pushKids pushes v's children onto stack in reverse Kids order.
func (se *stageEval) pushKids(stack []int, v int) []int {
	kids := se.t.Nodes[v].Kids
	for i := len(kids) - 1; i >= 0; i-- {
		if kids[i] != ctree.NoNode {
			stack = append(stack, kids[i])
		}
	}
	return stack
}

// eval recomputes the stage under the tree's current rule assignment for
// the given transition at the driver's input pin. The arrivals are
// written into arr, one of se.arr, which the returned state then aliases.
func (se *stageEval) eval(inSlew float64, arr []float64) stageState {
	t, te := se.t, se.te
	// Downstream caps, children-before-parents (reverse of `nodes`).
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
				j := se.local[k] - 1
				d += se.down[j] + te.WireC(t.Nodes[k].EdgeLen, t.Nodes[k].Rule)/2
			}
		}
		se.down[i] = d
	}
	// Stage load seen by the driver.
	st := stageState{arr: arr}
	for _, k := range t.Nodes[se.driver].Kids {
		if k == ctree.NoNode {
			continue
		}
		j := se.local[k] - 1
		st.stageCap += se.down[j] + te.WireC(t.Nodes[k].EdgeLen, t.Nodes[k].Rule)/2
	}
	b := &se.lib.Buffers[t.Nodes[se.driver].BufIdx]
	st.bufDelay = b.DelayAt(inSlew, st.stageCap)
	st.outSlew = b.OutSlewAt(inSlew, st.stageCap)
	// Elmore, parents-before-children (forward order).
	for i, v := range se.nodes {
		nd := &t.Nodes[v]
		base := 0.0
		if p := nd.Parent; p != se.driver {
			base = se.elm[se.local[p]-1]
		}
		se.elm[i] = base + te.WireR(nd.EdgeLen, nd.Rule)*se.down[i]
		st.arr[i] = st.bufDelay + se.elm[i]
		if se.endpoint[i] {
			if s := math.Hypot(st.outSlew, rctree.Ln9*se.elm[i]); s > st.worstSlew {
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
