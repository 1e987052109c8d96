// Package rctree implements the RC-tree electrical model used throughout
// the flow: Elmore delay and PERI (scaled-Elmore) slew on a tree of
// resistive wire segments with distributed wire capacitance (π-model) and
// lumped pin capacitances.
//
// A Tree models one *stage* of the buffered clock network: the wire between
// a driver output pin (the root) and the downstream buffer inputs or clock
// sinks (the leaves). Buffer delay itself is table-driven (package cell);
// this package covers only the passive interconnect, with wire resistance
// only — the driver's resistance is accounted for by the NLDM tables, the
// standard CTS decomposition.
package rctree

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node within one Tree.
type NodeID int32

// None is the NodeID used for "no node" (the root's parent).
const None NodeID = -1

// Ln9 converts a step-response Elmore delay into a 10–90% transition time
// (the PERI approximation).
const Ln9 = 2.1972245773362196

// Tree is an RC tree. Node 0 is always the root (driver output pin).
// Wire capacitance of each edge is split half to each endpoint (π-model)
// during analysis.
type Tree struct {
	parent  []NodeID
	edgeR   []float64 // Ω, resistance of edge (parent→node); 0 for root
	edgeC   []float64 // F, distributed capacitance of that edge
	pinCap  []float64 // F, lumped pin cap at the node
	chHead  []int32   // head of child linked list, -1 if none
	chNext  []int32   // next sibling
	order   []NodeID  // topological order (parents first); nil when dirty
	tagLeaf []bool    // true for nodes registered as timing endpoints
}

// New returns a tree containing only the root node (the driver pin) with
// the given lumped pin capacitance (usually 0).
func New(rootPinCap float64) *Tree {
	t := &Tree{}
	t.parent = append(t.parent, None)
	t.edgeR = append(t.edgeR, 0)
	t.edgeC = append(t.edgeC, 0)
	t.pinCap = append(t.pinCap, rootPinCap)
	t.chHead = append(t.chHead, -1)
	t.chNext = append(t.chNext, -1)
	t.tagLeaf = append(t.tagLeaf, false)
	return t
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.parent) }

// Root returns the root node ID (always 0).
func (t *Tree) Root() NodeID { return 0 }

// AddNode appends a node connected to parent by an edge with resistance r
// and distributed capacitance c, with lumped pin capacitance pin at the new
// node. It returns the new node's ID.
func (t *Tree) AddNode(parent NodeID, r, c, pin float64) NodeID {
	id := NodeID(len(t.parent))
	t.parent = append(t.parent, parent)
	t.edgeR = append(t.edgeR, r)
	t.edgeC = append(t.edgeC, c)
	t.pinCap = append(t.pinCap, pin)
	t.chHead = append(t.chHead, -1)
	t.chNext = append(t.chNext, t.chHead[parent])
	t.chHead[parent] = int32(id)
	t.tagLeaf = append(t.tagLeaf, false)
	t.order = nil
	return id
}

// SetEdge replaces the RC of the edge feeding node n. The root has no
// feeding edge; calling SetEdge on the root panics.
func (t *Tree) SetEdge(n NodeID, r, c float64) {
	if n == 0 {
		panic("rctree: root has no feeding edge")
	}
	t.edgeR[n] = r
	t.edgeC[n] = c
}

// EdgeRC returns the resistance and capacitance of the edge feeding node n.
func (t *Tree) EdgeRC(n NodeID) (r, c float64) { return t.edgeR[n], t.edgeC[n] }

// SetPinCap replaces the lumped pin capacitance at node n.
func (t *Tree) SetPinCap(n NodeID, pin float64) { t.pinCap[n] = pin }

// PinCap returns the lumped pin capacitance at node n.
func (t *Tree) PinCap(n NodeID) float64 { return t.pinCap[n] }

// Parent returns the parent of node n (None for the root).
func (t *Tree) Parent(n NodeID) NodeID { return t.parent[n] }

// MarkEndpoint tags node n as a timing endpoint (sink pin or downstream
// buffer input). Analysis reports per-endpoint delay and slew.
func (t *Tree) MarkEndpoint(n NodeID) { t.tagLeaf[n] = true }

// IsEndpoint reports whether node n is a timing endpoint.
func (t *Tree) IsEndpoint(n NodeID) bool { return t.tagLeaf[n] }

// Children calls fn for every child of n.
func (t *Tree) Children(n NodeID, fn func(NodeID)) {
	for c := t.chHead[n]; c >= 0; c = t.chNext[c] {
		fn(NodeID(c))
	}
}

// topoOrder returns (computing and caching if needed) a parents-first order.
func (t *Tree) topoOrder() []NodeID {
	if t.order != nil && len(t.order) == len(t.parent) {
		return t.order
	}
	order := make([]NodeID, 0, len(t.parent))
	stack := []NodeID{0}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, n)
		for c := t.chHead[n]; c >= 0; c = t.chNext[c] {
			stack = append(stack, NodeID(c))
		}
	}
	t.order = order
	return order
}

// Result holds one analysis pass over a tree.
type Result struct {
	// Delay[n] is the Elmore delay from the root to node n (wire only), s.
	Delay []float64
	// StepSlew[n] is the PERI wire transition at node n for a step input
	// at the root: Ln9 × Elmore, s.
	StepSlew []float64
	// DownCap[n] is the total capacitance at and below n, including the
	// full wire capacitance of n's feeding edge, F.
	DownCap []float64
	// TotalCap is the capacitance the driver sees: wire + pins, F.
	TotalCap float64
}

// Analyze computes Elmore delay, step slew, and downstream capacitance for
// every node.
func (t *Tree) Analyze() *Result {
	n := len(t.parent)
	res := &Result{
		Delay:    make([]float64, n),
		StepSlew: make([]float64, n),
		DownCap:  make([]float64, n),
	}
	order := t.topoOrder()
	// Effective lumped node cap under the π-model: pin cap + half of the
	// feeding edge's wire cap + half of each child edge's wire cap.
	nodeCap := make([]float64, n)
	for i := 0; i < n; i++ {
		nodeCap[i] = t.pinCap[i] + t.edgeC[i]/2
	}
	for i := 1; i < n; i++ {
		nodeCap[t.parent[i]] += t.edgeC[i] / 2
	}
	// Downstream lumped cap: reverse topological accumulation.
	down := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		down[v] += nodeCap[v]
		if p := t.parent[v]; p != None {
			down[p] += down[v]
		}
	}
	// Elmore: delay(v) = delay(parent) + R(v) · downLumped(v).
	for _, v := range order[1:] {
		p := t.parent[v]
		res.Delay[v] = res.Delay[p] + t.edgeR[v]*down[v]
	}
	for i := 0; i < n; i++ {
		res.StepSlew[i] = Ln9 * res.Delay[i]
	}
	// Report DownCap in the natural convention (full feeding edge included)
	// rather than the π-split used internally.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		res.DownCap[v] += t.pinCap[v] + t.edgeC[v]
		if p := t.parent[v]; p != None {
			res.DownCap[p] += res.DownCap[v]
		}
	}
	res.TotalCap = res.DownCap[0]
	return res
}

// Endpoints returns the IDs of all marked endpoints in topological order.
func (t *Tree) Endpoints() []NodeID {
	var eps []NodeID
	for _, v := range t.topoOrder() {
		if t.tagLeaf[v] {
			eps = append(eps, v)
		}
	}
	return eps
}

// Validate checks structural invariants; it is called by tests and by
// loaders that deserialize trees.
func (t *Tree) Validate() error {
	n := len(t.parent)
	if n == 0 {
		return errors.New("rctree: empty tree")
	}
	if t.parent[0] != None {
		return errors.New("rctree: node 0 must be the root")
	}
	for i := 1; i < n; i++ {
		p := t.parent[i]
		if p == None {
			return fmt.Errorf("rctree: node %d has no parent", i)
		}
		if p < 0 || int(p) >= n {
			return fmt.Errorf("rctree: node %d has out-of-range parent %d", i, p)
		}
		if p >= NodeID(i) {
			return fmt.Errorf("rctree: node %d has non-ancestral parent %d (nodes must be added parents-first)", i, p)
		}
		if t.edgeR[i] < 0 || t.edgeC[i] < 0 {
			return fmt.Errorf("rctree: node %d has negative edge RC", i)
		}
		if t.pinCap[i] < 0 {
			return fmt.Errorf("rctree: node %d has negative pin cap", i)
		}
		if math.IsNaN(t.edgeR[i]) || math.IsNaN(t.edgeC[i]) {
			return fmt.Errorf("rctree: node %d has NaN edge RC", i)
		}
	}
	if len(t.topoOrder()) != n {
		return errors.New("rctree: disconnected nodes")
	}
	return nil
}
