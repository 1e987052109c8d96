// Package sta performs static timing analysis of a buffered clock tree:
// per-sink arrival times (insertion delay), global skew, and transition
// (slew) at every pin. It is the ground truth the rest of the flow
// optimizes against.
//
// The network is evaluated stage by stage. A stage is the RC tree between
// one buffer's output and the next buffer inputs / clock sinks below it.
// Wire delay within a stage is Elmore on the π-model; wire slew is the
// PERI scaled-Elmore estimate, root-sum-square combined with the driver's
// output transition; buffer delay and output slew come from the NLDM
// tables of package cell, evaluated at the stage's total capacitance —
// the standard CTS-internal delay calculation.
package sta

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/obs"
	"smartndr/internal/rctree"
	"smartndr/internal/tech"
)

// DefaultInSlew is the root input transition a flow assumes when none is
// configured, s. It is the one home of that default: the facade, the
// optimizer and the hierarchical builder all resolve an unset slew to it.
const DefaultInSlew = 40e-12

// Result holds one analysis of a clock tree.
type Result struct {
	// Arrival[v] is the arrival time at node v's *input* pin: for sink
	// nodes the clock arrival at the flip-flop, for buffered nodes the
	// arrival at the buffer input, s.
	Arrival []float64
	// Slew[v] is the transition at node v's input pin, s.
	Slew []float64
	// StageCap[v] is the capacitance the buffer at node v drives, F.
	// Entries are meaningful only at buffered nodes; Drivers lists those
	// nodes, so `for _, d := range r.Drivers { r.StageCap[d] }` is the
	// canonical (and deterministic) way to walk the stages.
	StageCap []float64
	// Drivers lists the buffered node indices in ascending node order.
	Drivers []int
	// DownCap[v] is the π-lumped downstream capacitance at and below v
	// *within its stage* (buffer inputs terminate the accumulation), F.
	// It is exactly the load an extra micron of wire on v's feeding edge
	// would drive — the skew-repair snaking pass uses it.
	DownCap []float64

	// Capacitance inventory, F (for the power model).
	WireCap     float64 // all wire under assigned rules
	SinkCap     float64 // sink pins
	BufInCap    float64 // buffer input pins
	BufIntCap   float64 // buffer internal switching cap
	LeakageTot  float64 // W, summed buffer leakage
	BufferCount int

	sinkNodes []int
}

// sinkExtremes returns the least and the greatest sink arrival, +Inf and
// −Inf without sinks. It folds with the min and max builtins, so one NaN
// arrival makes both extremes NaN, even where another arrival is
// infinite (math.Min and math.Max would let −Inf or +Inf win there). On
// every input without a NaN the builtins give math.Min's and math.Max's
// bits. Skew, MaxSinkArrival and Incremental.Summary all read this one
// scan, so they agree bit for bit.
func (r *Result) sinkExtremes() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range r.sinkNodes {
		lo = min(lo, r.Arrival[v])
		hi = max(hi, r.Arrival[v])
	}
	return lo, hi
}

// MaxSinkArrival returns the largest sink arrival (insertion delay).
func (r *Result) MaxSinkArrival() float64 {
	_, hi := r.sinkExtremes()
	return hi
}

// Skew returns max−min sink arrival, 0 without sinks.
func (r *Result) Skew() float64 {
	if len(r.sinkNodes) == 0 {
		return 0
	}
	lo, hi := r.sinkExtremes()
	return hi - lo
}

// WorstSlew returns the largest transition at any sink or buffer input,
// and the node where it occurs.
func (r *Result) WorstSlew() (float64, int) {
	worst, at := 0.0, -1
	for v, s := range r.Slew {
		if s > worst {
			worst, at = s, v
		}
	}
	return worst, at
}

// SlewViolations counts pins whose transition exceeds the limit.
func (r *Result) SlewViolations(limit float64) int {
	n := 0
	for _, s := range r.Slew {
		if s > limit {
			n++
		}
	}
	return n
}

// SinkArrivals returns arrival times indexed by sink (not node) order.
func (r *Result) SinkArrivals(t *ctree.Tree) []float64 {
	out := make([]float64, len(t.Sinks))
	for _, v := range r.sinkNodes {
		out[t.Nodes[v].SinkIdx] = r.Arrival[v]
	}
	return out
}

// Overrides optionally replace the electrical view of the tree for
// variation analysis: per-edge parasitics (indexed by node, replacing the
// rule-derived values) and a per-node multiplicative buffer delay scale.
// Nil slices fall back to nominal values.
type Overrides struct {
	EdgeR    []float64 // Ω per edge; nil → from rules
	EdgeC    []float64 // F per edge; nil → from rules
	BufScale []float64 // delay multiplier per buffered node; nil → 1
}

// Analyze evaluates the tree from scratch. inSlew is the transition of
// the clock signal arriving at the root buffer's input. The root node must
// carry a buffer (the source driver); every other buffer must lie on a
// path below it.
//
// It is the one-shot oracle the engine's other paths are tested against:
// a fresh engine's Full pass, with a freshly allocated Result. Callers
// analyzing trees repeatedly (Monte Carlo trials, optimizer inner loops,
// sessions) should hold an Incremental instead, which reuses all working
// storage.
func Analyze(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64) (*Result, error) {
	return NewIncremental(te, lib).Full(t, inSlew, nil, nil)
}

type postFrame struct {
	node int
	kid  int
}

// resize readies the engine's full-pass buffers for an n-node tree. The
// pass writes StageCap only at buffered nodes, so it starts cleared.
// slices.Grow sizes first storage exactly, since most engines time one
// tree whose node count never changes, and regrows it with append's
// headroom, so a tree that gains a few repeaters per analysis
// (cts.Build's calibration rounds) does not reallocate every array.
func (inc *Incremental) resize(n int) {
	inc.edgeR = slices.Grow(inc.edgeR[:0], n)[:n]
	inc.edgeC = slices.Grow(inc.edgeC[:0], n)[:n]
	inc.endCap = slices.Grow(inc.endCap[:0], n)[:n]
	inc.downCap = slices.Grow(inc.downCap[:0], n)[:n]
	inc.elm = slices.Grow(inc.elm[:0], n)[:n]
	inc.drv = slices.Grow(inc.drv[:0], n)[:n]
	inc.stageOutArr = slices.Grow(inc.stageOutArr[:0], n)[:n]
	inc.stageOutSlew = slices.Grow(inc.stageOutSlew[:0], n)[:n]
	inc.stageDelay = slices.Grow(inc.stageDelay[:0], n)[:n]
	inc.res.Arrival = slices.Grow(inc.res.Arrival[:0], n)[:n]
	inc.res.Slew = slices.Grow(inc.res.Slew[:0], n)[:n]
	inc.res.StageCap = slices.Grow(inc.res.StageCap[:0], n)[:n]
	clear(inc.res.StageCap)
	inc.res.Drivers = inc.res.Drivers[:0]
	inc.res.DownCap = nil
	inc.res.sinkNodes = inc.res.sinkNodes[:0]
	inc.arrStale, inc.slewStale, inc.wireStale, inc.lenValid = true, true, true, false
	inc.res.WireCap, inc.res.SinkCap, inc.res.BufInCap, inc.res.BufIntCap = 0, 0, 0, 0
	inc.res.LeakageTot = 0
	inc.res.BufferCount = 0
}

// pass is the from-scratch analysis every other path must match: it
// rewrites all of the engine's full-pass storage and its Result. A nil
// tracer adds no overhead.
//
// The walks run over the split of the tree (see split): the subtrees on
// the engine's workers, the part above them on the caller. Every node's
// arithmetic reads only its own edge, its children (for caps) or its
// ancestors (for timing), so any order that puts children before parents,
// or parents before children, gives it the same operands; the sums over
// the whole tree run serially in node-index order. A pass therefore
// writes the same bits at every worker count. With one worker the split
// is the root alone, and the walks are one post-order and one pre-order
// traversal of the whole tree.
func (inc *Incremental) pass(t *ctree.Tree, inSlew float64, ov *Overrides, tr *obs.Tracer) (*Result, error) {
	te, lib := inc.te, inc.lib
	if t.Root == ctree.NoNode {
		return nil, errors.New("sta: tree has no root")
	}
	if t.Nodes[t.Root].BufIdx == ctree.NoBuf {
		return nil, errors.New("sta: root carries no driver buffer")
	}
	if inSlew <= 0 {
		return nil, fmt.Errorf("sta: non-positive input slew %g", inSlew)
	}
	sp := tr.Start("sta.analyze", obs.I("nodes", len(t.Nodes)))
	defer sp.End()
	rcSpan := tr.Start("rc_build")
	defer rcSpan.End() // error paths; no-op after the explicit End below
	n := len(t.Nodes)
	inc.resize(n)
	inc.tree = t
	inc.ov = ov
	defer inc.dropOverrides()
	res := &inc.res
	inc.split(t)

	// Per-edge parasitics under the assigned rules, and L[v], the
	// endpoint cap v presents to its parent's stage, in node-index chunks.
	if err := inc.fanOut(phaseWire, inc.chunks(n)); err != nil {
		return nil, err
	}
	// The inventory, serially in node-index order. A bad rule is reported
	// before any bad buffer, each at its lowest node.
	badBuf := -1
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Parent != ctree.NoNode {
			if nd.Rule < 0 || nd.Rule >= te.NumRules() {
				return nil, fmt.Errorf("sta: node %d has out-of-range rule %d", i, nd.Rule)
			}
			res.WireCap += inc.edgeC[i]
		}
		switch {
		case nd.BufIdx != ctree.NoBuf:
			if nd.BufIdx < 0 || nd.BufIdx >= len(lib.Buffers) {
				if badBuf < 0 {
					badBuf = i
				}
				continue
			}
			b := &lib.Buffers[nd.BufIdx]
			res.BufInCap += b.InputCap
			res.BufIntCap += b.InternalCap
			res.LeakageTot += b.Leakage
			res.BufferCount++
			res.Drivers = append(res.Drivers, i)
		case t.IsLeaf(i):
			res.SinkCap += inc.endCap[i]
		}
		if nd.SinkIdx != ctree.NoSink {
			res.sinkNodes = append(res.sinkNodes, i)
		}
	}
	if badBuf >= 0 {
		return nil, fmt.Errorf("sta: node %d has out-of-range buffer %d", badBuf, t.Nodes[badBuf].BufIdx)
	}

	// D[v]: π-model lumped cap at-and-below v within the stage owning v's
	// feeding edge; StageCap at buffered nodes. Each subtree bottom-up on
	// the workers, then the top part, children before parents.
	if err := inc.fanOut(phaseCap, inc.subtrees()); err != nil {
		return nil, err
	}
	for i := len(inc.top) - 1; i >= 0; i-- {
		inc.capNode(t, inc.top[i])
	}
	rcSpan.End()

	// Timing, top-down: the top part, then each subtree on the workers.
	// elm[v] is the Elmore delay from the owning stage driver's output pin
	// to v; stageOutArr/stageOutSlew are indexed by driver node.
	propSpan := tr.Start("propagate")
	defer propSpan.End() // no-op after the explicit End below
	res.Arrival[t.Root] = 0
	res.Slew[t.Root] = inSlew
	inc.elm[t.Root] = 0
	inc.drv[t.Root] = t.Root
	inc.startStage(t, t.Root)
	for _, v := range inc.top {
		if v != t.Root {
			inc.timeNode(t, v)
		}
	}
	if err := inc.fanOut(phaseTime, inc.subtrees()); err != nil {
		return nil, err
	}
	res.DownCap = inc.downCap
	propSpan.End()
	return res, nil
}

// dropOverrides forgets the pass's overrides, so the engine holds no
// reference to the caller's slices between passes.
func (inc *Incremental) dropOverrides() { inc.ov = nil }

// wireChunk derives the parasitics and endpoint caps of nodes [lo, hi).
// Out-of-range rules and buffers are skipped here; the serial inventory
// reports them. The endpoint caps get a loop of their own: a sink's pin
// cap is a cache miss on the 100K-sink trees, and a short loop keeps many
// of them in flight, where the divisions of the parasitics would not.
func (inc *Incremental) wireChunk(t *ctree.Tree, lo, hi int) {
	te, lib, ov := inc.te, inc.lib, inc.ov
	edgeR, edgeC, L := inc.edgeR, inc.edgeC, inc.endCap
	for i := lo; i < hi; i++ {
		nd := &t.Nodes[i]
		switch {
		case nd.Parent == ctree.NoNode:
			edgeR[i], edgeC[i] = 0, 0
		case nd.Rule >= 0 && nd.Rule < te.NumRules():
			if ov != nil && ov.EdgeR != nil {
				edgeR[i] = ov.EdgeR[i]
			} else {
				edgeR[i] = te.WireR(nd.EdgeLen, nd.Rule)
			}
			if ov != nil && ov.EdgeC != nil {
				edgeC[i] = ov.EdgeC[i]
			} else {
				edgeC[i] = te.WireC(nd.EdgeLen, nd.Rule)
			}
		}
	}
	for i := lo; i < hi; i++ {
		nd := &t.Nodes[i]
		L[i] = 0
		switch {
		case nd.BufIdx != ctree.NoBuf:
			if nd.BufIdx >= 0 && nd.BufIdx < len(lib.Buffers) {
				L[i] = lib.Buffers[nd.BufIdx].InputCap
			}
		case t.IsLeaf(i):
			L[i] = t.Sinks[nd.SinkIdx].Cap
		}
	}
}

// capSubtree computes the lumped caps of the subtree at c, children
// before parents, on worker w's stack.
func (inc *Incremental) capSubtree(t *ctree.Tree, w, c int) {
	ws := inc.stacksOf(w)
	post := append(ws.post[:0], postFrame{c, 0})
	for len(post) > 0 {
		f := &post[len(post)-1]
		advanced := false
		for f.kid < 2 {
			k := t.Nodes[f.node].Kids[f.kid]
			f.kid++
			if k != ctree.NoNode {
				post = append(post, postFrame{k, 0})
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		v := f.node
		post = post[:len(post)-1]
		inc.capNode(t, v)
	}
	ws.post = post[:0]
}

// capNode sets D[v] from v's endpoint cap, its edge and its children's
// caps; a buffered v instead sums its children into the load of the
// stage it drives. The pass and the dirty-region update's stage rebuilds
// both run it.
func (inc *Incremental) capNode(t *ctree.Tree, v int) {
	D, edgeC := inc.downCap, inc.edgeC
	nd := &t.Nodes[v]
	D[v] = inc.endCap[v] + edgeC[v]/2
	if nd.BufIdx != ctree.NoBuf {
		// Children belong to v's own (new) stage; accumulate its load.
		load := 0.0
		for _, k := range nd.Kids {
			if k != ctree.NoNode {
				load += D[k] + edgeC[k]/2
			}
		}
		inc.res.StageCap[v] = load
		return
	}
	for _, k := range nd.Kids {
		if k != ctree.NoNode {
			D[v] += D[k] + edgeC[k]/2
		}
	}
}

// timeSubtree times the subtree at c, parents before children, on worker
// w's stack. The root's own timing is the pass's to set.
func (inc *Incremental) timeSubtree(t *ctree.Tree, w, c int) {
	ws := inc.stacksOf(w)
	pre := append(ws.pre[:0], c)
	for len(pre) > 0 {
		v := pre[len(pre)-1]
		pre = pre[:len(pre)-1]
		for _, k := range t.Nodes[v].Kids {
			if k != ctree.NoNode {
				pre = append(pre, k)
			}
		}
		if v != t.Root {
			inc.timeNode(t, v)
		}
	}
	ws.pre = pre[:0]
}

// timeNode times non-root node v from its parent's timing.
func (inc *Incremental) timeNode(t *ctree.Tree, v int) {
	res := &inc.res
	res.Arrival[v], res.Slew[v] = inc.wireTiming(t, v)
	if t.Nodes[v].BufIdx != ctree.NoBuf {
		inc.startStage(t, v)
	}
}

// wireTiming sets non-root node v's stage driver and Elmore delay from
// its parent's, and returns v's input arrival and transition. It is the
// per-node step of both the pass and the dirty-region update's walk.
func (inc *Incremental) wireTiming(t *ctree.Tree, v int) (arr, slew float64) {
	elm, drv := inc.elm, inc.drv
	p := t.Nodes[v].Parent
	var d int
	var base float64
	if t.Nodes[p].BufIdx != ctree.NoBuf {
		d = p
		base = 0
	} else {
		d = drv[p]
		base = elm[p]
	}
	drv[v] = d
	elm[v] = base + inc.edgeR[v]*inc.downCap[v]
	return inc.stageOutArr[d] + elm[v], math.Hypot(inc.stageOutSlew[d], rctree.Ln9*elm[v])
}

// startStage derives the output arrival and transition of the buffer at
// v from its input timing and its stage load. The dirty-region update
// restarts a stage with it too; overrides exist only inside a pass, so
// there it never scales the delay.
func (inc *Incremental) startStage(t *ctree.Tree, v int) {
	res := &inc.res
	b := &inc.lib.Buffers[t.Nodes[v].BufIdx]
	load := res.StageCap[v]
	d := b.DelayAt(res.Slew[v], load)
	inc.stageDelay[v] = d
	if ov := inc.ov; ov != nil && ov.BufScale != nil {
		d *= ov.BufScale[v]
	}
	inc.stageOutArr[v] = res.Arrival[v] + d
	inc.stageOutSlew[v] = b.OutSlewAt(res.Slew[v], load)
}

// TotalSwitchedCap returns the capacitance toggling every clock cycle:
// wire, sink pins, buffer inputs, and buffer internal cap.
func (r *Result) TotalSwitchedCap() float64 {
	return r.WireCap + r.SinkCap + r.BufInCap + r.BufIntCap
}
