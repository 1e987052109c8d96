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

// MaxSinkArrival returns the largest sink arrival (insertion delay).
func (r *Result) MaxSinkArrival() float64 {
	hi := math.Inf(-1)
	for _, v := range r.sinkNodes {
		hi = math.Max(hi, r.Arrival[v])
	}
	return hi
}

// Skew returns max−min sink arrival.
func (r *Result) Skew() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range r.sinkNodes {
		lo = math.Min(lo, r.Arrival[v])
		hi = math.Max(hi, r.Arrival[v])
	}
	if len(r.sinkNodes) == 0 {
		return 0
	}
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

// resize readies the engine's full-pass buffers for an n-node tree.
func (inc *Incremental) resize(n int) {
	if cap(inc.edgeR) < n {
		inc.edgeR = make([]float64, n)
		inc.edgeC = make([]float64, n)
		inc.endCap = make([]float64, n)
		inc.downCap = make([]float64, n)
		inc.elm = make([]float64, n)
		inc.drv = make([]int, n)
		inc.stageOutArr = make([]float64, n)
		inc.stageOutSlew = make([]float64, n)
		inc.stageDelay = make([]float64, n)
		inc.res.Arrival = make([]float64, n)
		inc.res.Slew = make([]float64, n)
		inc.res.StageCap = make([]float64, n)
	} else {
		inc.edgeR = inc.edgeR[:n]
		inc.edgeC = inc.edgeC[:n]
		inc.endCap = inc.endCap[:n]
		inc.downCap = inc.downCap[:n]
		inc.elm = inc.elm[:n]
		inc.drv = inc.drv[:n]
		inc.stageOutArr = inc.stageOutArr[:n]
		inc.stageOutSlew = inc.stageOutSlew[:n]
		inc.stageDelay = inc.stageDelay[:n]
		inc.res.Arrival = inc.res.Arrival[:n]
		inc.res.Slew = inc.res.Slew[:n]
		inc.res.StageCap = inc.res.StageCap[:n]
		clear(inc.res.StageCap)
	}
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
	res := &inc.res

	// Per-edge parasitics under the assigned rules.
	edgeR, edgeC := inc.edgeR, inc.edgeC
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Parent == ctree.NoNode {
			edgeR[i], edgeC[i] = 0, 0
			continue
		}
		if nd.Rule < 0 || nd.Rule >= te.NumRules() {
			return nil, fmt.Errorf("sta: node %d has out-of-range rule %d", i, nd.Rule)
		}
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
		res.WireCap += edgeC[i]
	}

	// L[v]: endpoint cap v presents to its parent's stage.
	// D[v]: π-model lumped cap at-and-below v within the stage owning v's
	// feeding edge.
	L := inc.endCap
	D := inc.downCap
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		L[i] = 0
		switch {
		case nd.BufIdx != ctree.NoBuf:
			b := &lib.Buffers[nd.BufIdx]
			if nd.BufIdx < 0 || nd.BufIdx >= len(lib.Buffers) {
				return nil, fmt.Errorf("sta: node %d has out-of-range buffer %d", i, nd.BufIdx)
			}
			L[i] = b.InputCap
			res.BufInCap += b.InputCap
			res.BufIntCap += b.InternalCap
			res.LeakageTot += b.Leakage
			res.BufferCount++
			res.Drivers = append(res.Drivers, i)
		case t.IsLeaf(i):
			L[i] = t.Sinks[nd.SinkIdx].Cap
			res.SinkCap += L[i]
		}
	}
	// Post-order walk (children before parents), inlined on the reusable
	// stack — semantically identical to ctree.PostOrder.
	post := append(inc.postStack[:0], postFrame{t.Root, 0})
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

		nd := &t.Nodes[v]
		D[v] = L[v] + edgeC[v]/2
		if nd.BufIdx != ctree.NoBuf {
			// Children belong to v's own (new) stage; accumulate its load.
			load := 0.0
			for _, k := range nd.Kids {
				if k != ctree.NoNode {
					load += D[k] + edgeC[k]/2
				}
			}
			res.StageCap[v] = load
			continue
		}
		for _, k := range nd.Kids {
			if k != ctree.NoNode {
				D[v] += D[k] + edgeC[k]/2
			}
		}
	}
	inc.postStack = post[:0]

	rcSpan.End()

	// Timing, one pre-order pass. elm[v] is the Elmore delay from the
	// owning stage driver's output pin to v; stageOutArr/stageOutSlew are
	// indexed by driver node.
	propSpan := tr.Start("propagate")
	elm := inc.elm
	stageOutArr := inc.stageOutArr
	stageOutSlew := inc.stageOutSlew
	drv := inc.drv
	startStage := func(v int) {
		b := &lib.Buffers[t.Nodes[v].BufIdx]
		load := res.StageCap[v]
		d := b.DelayAt(res.Slew[v], load)
		inc.stageDelay[v] = d
		if ov != nil && ov.BufScale != nil {
			d *= ov.BufScale[v]
		}
		stageOutArr[v] = res.Arrival[v] + d
		stageOutSlew[v] = b.OutSlewAt(res.Slew[v], load)
	}
	res.Arrival[t.Root] = 0
	res.Slew[t.Root] = inSlew
	elm[t.Root] = 0
	drv[t.Root] = t.Root
	startStage(t.Root)
	// Pre-order walk (parents before children), inlined on the reusable
	// stack — semantically identical to ctree.PreOrder.
	pre := append(inc.preStack[:0], t.Root)
	for len(pre) > 0 {
		v := pre[len(pre)-1]
		pre = pre[:len(pre)-1]
		for _, k := range t.Nodes[v].Kids {
			if k != ctree.NoNode {
				pre = append(pre, k)
			}
		}
		if v == t.Root {
			continue
		}
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
		elm[v] = base + edgeR[v]*D[v]
		res.Arrival[v] = stageOutArr[d] + elm[v]
		res.Slew[v] = math.Hypot(stageOutSlew[d], rctree.Ln9*elm[v])
		if t.Nodes[v].BufIdx != ctree.NoBuf {
			startStage(v)
		}
	}
	inc.preStack = pre[:0]
	for i := range t.Nodes {
		if t.Nodes[i].SinkIdx != ctree.NoSink {
			res.sinkNodes = append(res.sinkNodes, i)
		}
	}
	res.DownCap = D
	propSpan.End()
	return res, nil
}

// TotalSwitchedCap returns the capacitance toggling every clock cycle:
// wire, sink pins, buffer inputs, and buffer internal cap.
func (r *Result) TotalSwitchedCap() float64 {
	return r.WireCap + r.SinkCap + r.BufInCap + r.BufIntCap
}
