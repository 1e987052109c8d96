// Edits and the ECO applicator behind stateful design sessions.
//
// A session holds one optimized tree and re-evaluates it after small
// engineering change orders (ECOs): a sink moves, a pin cap changes, an
// edge is forced onto a different rule class, the input slew is swept.
// The contract the serve layer builds on is bitwise determinism: applying
// a canonical edit list to a pristine tree must produce the same tree
// bytes whether it happens in one shot (a cold run of the edited spec) or
// by stepping through intermediate states (a warm session). SetState
// guarantees that by always reverting to recorded pristine values before
// applying the desired state in canonical order — floating-point
// round-trips like `x - d + d` never enter the picture.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/tech"
)

// ErrEdit tags every edit-validation failure so transport layers can map
// engine rejections to a 400 rather than a 500.
var ErrEdit = errors.New("invalid edit")

// Edit ops. The op decides which fields of Edit are meaningful; every op
// is an absolute set (last write wins), which is what makes canonical
// edit lists order-free for clients.
const (
	OpMoveSink = "move_sink" // Sink, X, Y (µm): relocate a sink pin
	OpSinkCap  = "sink_cap"  // Sink, Cap (F): change a sink pin cap
	OpSinkRule = "sink_rule" // Sink, Rule: re-rule the sink leaf's feeding edge
	OpNodeRule = "node_rule" // Node, Rule: re-rule one tree edge by node index
	OpInSlew   = "in_slew"   // InSlewPS: override the source input slew
)

// Edit is one serialized session delta. Which index/value fields are read
// depends on Op — see the op constants.
type Edit struct {
	Op       string  `json:"op"`
	Sink     int     `json:"sink,omitempty"`
	Node     int     `json:"node,omitempty"`
	X        float64 `json:"x,omitempty"`
	Y        float64 `json:"y,omitempty"`
	Cap      float64 `json:"cap,omitempty"`
	Rule     int     `json:"rule,omitempty"`
	InSlewPS float64 `json:"in_slew_ps,omitempty"`
}

// opRank orders ops inside a canonical edit list. Rule edits addressed by
// sink always precede rule edits addressed by node so that when both name
// the same edge, the node-addressed one deterministically wins.
func opRank(op string) int {
	switch op {
	case OpMoveSink:
		return 0
	case OpSinkCap:
		return 1
	case OpSinkRule:
		return 2
	case OpNodeRule:
		return 3
	case OpInSlew:
		return 4
	}
	return -1
}

// target identifies what an edit writes: one (op kind, index) cell.
type target struct {
	rank int
	idx  int
}

// cmpTarget orders targets by (op rank, index): the canonical order.
func cmpTarget(a, b target) int {
	return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.idx, b.idx))
}

func (e Edit) target() target {
	r := opRank(e.Op)
	switch e.Op {
	case OpMoveSink, OpSinkCap, OpSinkRule:
		return target{r, e.Sink}
	case OpNodeRule:
		return target{r, e.Node}
	default: // in_slew and unknown ops have a single global cell
		return target{r, 0}
	}
}

// Validate checks the fields any tree would reject: unknown op, negative
// index, non-finite or non-positive values. Index upper bounds are only
// known to an ECO bound to a tree; SetState checks those.
func (e Edit) Validate() error {
	switch e.Op {
	case OpMoveSink:
		if e.Sink < 0 {
			return fmt.Errorf("%w: %s sink %d", ErrEdit, e.Op, e.Sink)
		}
		if !finite(e.X) || !finite(e.Y) {
			return fmt.Errorf("%w: %s (%g,%g) not finite", ErrEdit, e.Op, e.X, e.Y)
		}
	case OpSinkCap:
		if e.Sink < 0 {
			return fmt.Errorf("%w: %s sink %d", ErrEdit, e.Op, e.Sink)
		}
		if !(e.Cap > 0) || !finite(e.Cap) {
			return fmt.Errorf("%w: %s cap %g", ErrEdit, e.Op, e.Cap)
		}
	case OpSinkRule:
		if e.Sink < 0 || e.Rule < 0 {
			return fmt.Errorf("%w: %s sink %d rule %d", ErrEdit, e.Op, e.Sink, e.Rule)
		}
	case OpNodeRule:
		if e.Node < 0 || e.Rule < 0 {
			return fmt.Errorf("%w: %s node %d rule %d", ErrEdit, e.Op, e.Node, e.Rule)
		}
	case OpInSlew:
		if !(e.InSlewPS > 0) || !finite(e.InSlewPS) {
			return fmt.Errorf("%w: %s %g ps", ErrEdit, e.Op, e.InSlewPS)
		}
	default:
		return fmt.Errorf("%w: unknown op %q", ErrEdit, e.Op)
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// canonical strips the fields the op does not read, so two edits that
// mean the same thing marshal to the same bytes. Known ops are spelled
// with the package constants, so a canonical edit retains no decoded
// string (session histories keep many of them).
func (e Edit) canonical() Edit {
	var c Edit
	switch e.Op {
	case OpMoveSink:
		c.Op, c.Sink, c.X, c.Y = OpMoveSink, e.Sink, e.X, e.Y
	case OpSinkCap:
		c.Op, c.Sink, c.Cap = OpSinkCap, e.Sink, e.Cap
	case OpSinkRule:
		c.Op, c.Sink, c.Rule = OpSinkRule, e.Sink, e.Rule
	case OpNodeRule:
		c.Op, c.Node, c.Rule = OpNodeRule, e.Node, e.Rule
	case OpInSlew:
		c.Op, c.InSlewPS = OpInSlew, e.InSlewPS
	default:
		return e
	}
	return c
}

// CanonicalEdits reduces an edit sequence to its canonical form: every op
// is an absolute set, so only the last write to each (op, index) target
// survives; survivors are field-normalized and sorted by (op, index).
// An empty result is returned as nil so "no edits" has one spelling —
// callers hash the canonical list into cache keys. The input is not
// validated; invalid edits canonicalize like any others and are rejected
// when applied.
func CanonicalEdits(edits []Edit) []Edit {
	if len(edits) == 0 {
		return nil
	}
	last := make(map[target]Edit, len(edits))
	for _, e := range edits {
		last[e.target()] = e.canonical()
	}
	out := make([]Edit, 0, len(last))
	for _, e := range last { //lint:commutative — collected then sorted below
		out = append(out, e)
	}
	// Targets are unique, so the order is total and any sort gives it.
	slices.SortFunc(out, func(a, b Edit) int { return cmpTarget(a.target(), b.target()) })
	return out
}

// ECO applies canonical edit lists to one optimized tree, bitwise
// reversibly. It snapshots every value an edit can overwrite at
// construction; SetState restores those recorded originals before
// applying the desired state, so any edit path to a given canonical list
// lands on the identical tree bytes.
//
// ECO copies the Sinks slice up front: ctree.Tree.Clone shares it, and a
// sink-cap edit through a shared backing array would corrupt sibling
// clones of the same build.
type ECO struct {
	t  *ctree.Tree
	te *tech.Tech

	leafOf      []int        // sink index -> its leaf node
	origLoc     []geom.Point // per sink: pristine sink location
	origNodeLoc []geom.Point // per sink: pristine leaf-node location
	origCap     []float64    // per sink
	origEdgeLen []float64    // per sink: the leaf's pristine feeding EdgeLen
	surplus     []float64    // per sink: pristine EdgeLen - Dist(parent, sink)
	origRule    []int        // per node

	live     map[target]Edit // edits currently applied to t
	inSlewPS float64         // 0 = no in_slew override live
}

// NewECO snapshots the pristine state of an optimized tree. The tree must
// be valid (every sink covered by exactly one leaf).
func NewECO(t *ctree.Tree, te *tech.Tech) (*ECO, error) {
	e := &ECO{
		t:           t,
		te:          te,
		leafOf:      make([]int, len(t.Sinks)),
		origLoc:     make([]geom.Point, len(t.Sinks)),
		origNodeLoc: make([]geom.Point, len(t.Sinks)),
		origCap:     make([]float64, len(t.Sinks)),
		origEdgeLen: make([]float64, len(t.Sinks)),
		surplus:     make([]float64, len(t.Sinks)),
		origRule:    make([]int, len(t.Nodes)),
		live:        make(map[target]Edit),
	}
	for i := range e.leafOf {
		e.leafOf[i] = ctree.NoNode
	}
	// Clone shares Sinks between trees; edits must not leak across clones.
	t.Sinks = append([]ctree.Sink(nil), t.Sinks...)
	for v := range t.Nodes {
		nd := &t.Nodes[v]
		e.origRule[v] = nd.Rule
		if nd.SinkIdx == ctree.NoSink {
			continue
		}
		s := nd.SinkIdx
		if s < 0 || s >= len(t.Sinks) || e.leafOf[s] != ctree.NoNode {
			return nil, fmt.Errorf("core: tree sink coverage broken at node %d", v)
		}
		e.leafOf[s] = v
		e.origLoc[s] = t.Sinks[s].Loc
		// DME may embed the leaf a hair off the pin; revert must restore
		// the node's own pristine location bitwise, not the sink's.
		e.origNodeLoc[s] = nd.Loc
		e.origCap[s] = t.Sinks[s].Cap
		e.origEdgeLen[s] = nd.EdgeLen
		if nd.Parent != ctree.NoNode {
			// Snaking surplus of the pristine embedding; a moved sink
			// keeps its surplus so the edge stays a valid embedding.
			e.surplus[s] = nd.EdgeLen - t.Nodes[nd.Parent].Loc.Dist(nd.Loc)
		}
	}
	for s, v := range e.leafOf {
		if v == ctree.NoNode {
			return nil, fmt.Errorf("core: sink %d not covered by the tree", s)
		}
	}
	return e, nil
}

// Tree returns the tree the ECO mutates.
func (e *ECO) Tree() *ctree.Tree { return e.t }

// InSlew returns the session input slew: the live in_slew override if one
// is applied, else base. The ps→s conversion happens in exactly one place
// so warm and cold paths compute the identical float.
func (e *ECO) InSlew(base float64) float64 {
	if e.inSlewPS > 0 {
		return e.inSlewPS * 1e-12
	}
	return base
}

// check validates an edit against the bound tree.
func (e *ECO) check(ed Edit) error {
	if err := ed.Validate(); err != nil {
		return err
	}
	switch ed.Op {
	case OpMoveSink, OpSinkCap, OpSinkRule:
		if ed.Sink >= len(e.t.Sinks) {
			return fmt.Errorf("%w: %s sink %d out of range (%d sinks)", ErrEdit, ed.Op, ed.Sink, len(e.t.Sinks))
		}
	case OpNodeRule:
		if ed.Node >= len(e.t.Nodes) {
			return fmt.Errorf("%w: %s node %d out of range (%d nodes)", ErrEdit, ed.Op, ed.Node, len(e.t.Nodes))
		}
	}
	switch ed.Op {
	case OpSinkRule, OpNodeRule:
		if ed.Rule >= e.te.NumRules() {
			return fmt.Errorf("%w: rule %d out of range (%d rules)", ErrEdit, ed.Rule, e.te.NumRules())
		}
	}
	return nil
}

// SetState makes the tree's edit state exactly CanonicalEdits(edits):
// live edits absent from the desired state revert to their recorded
// pristine values, then every desired edit is applied in canonical order.
// touch, if non-nil, is called with each tree node whose analysis inputs
// may have changed (the hook a dirty-region engine hangs off). On a
// validation error the tree is untouched.
func (e *ECO) SetState(edits []Edit, touch func(node int)) error {
	desired := CanonicalEdits(edits)
	for _, ed := range desired {
		if err := e.check(ed); err != nil {
			return err
		}
	}
	// Revert live edits that the desired state drops, in target order so
	// the walk itself is deterministic.
	var stale []target
	keep := make(map[target]bool, len(desired))
	for _, ed := range desired {
		keep[ed.target()] = true
	}
	for tg := range e.live { //lint:commutative — collected then sorted below
		if !keep[tg] {
			stale = append(stale, tg)
		}
	}
	slices.SortFunc(stale, cmpTarget)
	for _, tg := range stale {
		e.revert(e.live[tg], touch)
		delete(e.live, tg)
	}
	for _, ed := range desired {
		e.apply(ed, touch)
		e.live[ed.target()] = ed
	}
	return nil
}

// Live returns the canonical edit list currently applied to the tree.
func (e *ECO) Live() []Edit {
	out := make([]Edit, 0, len(e.live))
	for _, ed := range e.live { //lint:commutative — CanonicalEdits sorts
		out = append(out, ed)
	}
	return CanonicalEdits(out)
}

// apply writes one validated edit into the tree. Every op is an absolute
// set computed from pristine snapshots, never from the current value, so
// re-applying is idempotent and any apply order inside one target is moot.
func (e *ECO) apply(ed Edit, touch func(int)) {
	switch ed.Op {
	case OpMoveSink:
		s := ed.Sink
		v := e.leafOf[s]
		loc := geom.Point{X: ed.X, Y: ed.Y}
		e.t.Sinks[s].Loc = loc
		e.t.Nodes[v].Loc = loc
		if p := e.t.Nodes[v].Parent; p != ctree.NoNode {
			e.t.Nodes[v].EdgeLen = e.surplus[s] + e.t.Nodes[p].Loc.Dist(loc)
		}
		e.mark(v, touch)
	case OpSinkCap:
		e.t.Sinks[ed.Sink].Cap = ed.Cap
		e.mark(e.leafOf[ed.Sink], touch)
	case OpSinkRule:
		v := e.leafOf[ed.Sink]
		e.t.Nodes[v].Rule = ed.Rule
		e.mark(v, touch)
	case OpNodeRule:
		// The root has no feeding edge; a root rule edit is an inert
		// no-op everywhere (STA and metrics skip parentless nodes), so
		// it is accepted rather than special-cased by every client.
		e.t.Nodes[ed.Node].Rule = ed.Rule
		e.mark(ed.Node, touch)
	case OpInSlew:
		e.inSlewPS = ed.InSlewPS
	}
}

// revert restores the pristine values an edit overwrote. Originals are
// restored from the snapshot bitwise — recomputing them would not be
// exact ((a-b)+b != a in floats).
func (e *ECO) revert(ed Edit, touch func(int)) {
	switch ed.Op {
	case OpMoveSink:
		s := ed.Sink
		v := e.leafOf[s]
		e.t.Sinks[s].Loc = e.origLoc[s]
		e.t.Nodes[v].Loc = e.origNodeLoc[s]
		e.t.Nodes[v].EdgeLen = e.origEdgeLen[s]
		e.mark(v, touch)
	case OpSinkCap:
		e.t.Sinks[ed.Sink].Cap = e.origCap[ed.Sink]
		e.mark(e.leafOf[ed.Sink], touch)
	case OpSinkRule:
		v := e.leafOf[ed.Sink]
		e.t.Nodes[v].Rule = e.origRule[v]
		e.mark(v, touch)
	case OpNodeRule:
		e.t.Nodes[ed.Node].Rule = e.origRule[ed.Node]
		e.mark(ed.Node, touch)
	case OpInSlew:
		e.inSlewPS = 0
	}
}

func (e *ECO) mark(v int, touch func(int)) {
	if touch != nil {
		touch(v)
	}
}
