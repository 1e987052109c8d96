// Package dme implements Deferred-Merge Embedding: given a binary clock
// topology over located sinks, it computes an exact zero-skew embedding
// under the Elmore delay model (Chao–Hsu–Kahng / Boese–Kahng / Edahiro).
//
// The algorithm runs in two phases:
//
//  1. Bottom-up: each node gets a *merging segment* — the locus of points
//     where its two subtrees can be joined with equal Elmore delay using
//     minimum total wire. Merging segments are Manhattan arcs, manipulated
//     as tilted rectangular regions (package geom). When delay balance
//     cannot be achieved with a plain split of the children's distance,
//     the fast side's edge is *snaked* (elongated beyond its Manhattan
//     length), the standard zero-skew escape.
//
//  2. Top-down: a concrete point is chosen on each merging segment, nearest
//     to the already-placed parent, which realizes every edge within its
//     recorded electrical length.
//
// The resulting tree has zero Elmore skew by construction for uniform wire
// RC; tests assert the residual is at floating-point noise level.
package dme

import (
	"errors"
	"fmt"
	"math"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

// Model selects the edge delay model used for balancing.
type Model int

const (
	// Elmore models an edge of length e driving downstream cap C as a
	// distributed RC line: delay = r·e·(c·e/2 + C). Used for unbuffered
	// (bottom-level) stages.
	Elmore Model = iota
	// Linear models an edge as a repeated (buffered) line with constant
	// delay per micron: delay = k·e, independent of downstream cap. Used
	// for upper levels where repeaters are inserted at fixed spacing — the
	// per-segment buffer plus wire delay amortizes to a constant rate.
	Linear
	// Repeated models the repeated line *exactly*: an edge of length e is
	// realized as n = ceil(e/Spacing) equal segments, each terminated by a
	// repeater (linearized as T0 + Rd·load), so
	//
	//	delay(e) = n·T0 + Rd·(c·e + n·Cin) + r·(e/n)·(c·e/(2n) + Cin)·n
	//
	// This removes the fractional-segment error of the Linear model (up
	// to half a repeater delay per edge), which would otherwise accumulate
	// into tens of picoseconds of construction skew. Merges are balanced
	// by monotone binary search over the split point, with in-branch
	// fine-tuning across the repeater-count jumps.
	Repeated
)

// RepeatParams parameterize the Repeated model's per-segment repeater.
type RepeatParams struct {
	Rd      float64 // Ω, linearized repeater drive resistance
	T0      float64 // s, repeater intrinsic delay
	Cin     float64 // F, repeater input capacitance
	Spacing float64 // µm, maximum segment length
	// SlewPenalty is the extra delay of the repeater that follows a
	// junction: the junction's heavier load degrades its output
	// transition, slowing the next stage. Charged once per merge.
	SlewPenalty float64 // s
}

// firstSeg returns the length of the first segment of an edge of length e
// (segments are equal; a zero-length edge has a zero-length segment).
func (p Params) firstSeg(e float64) float64 {
	if e <= 0 {
		return 0
	}
	return e / p.segments(e)
}

// Params hold the uniform per-micron wire model used for delay balancing.
// The embedding is performed under the *blanket* rule of the flow; later
// per-edge rule changes deliberately perturb the balance, and the
// optimizer's skew-repair pass restores it.
type Params struct {
	Model  Model
	RPerUm float64      // Ω/µm (Elmore and Repeated models)
	CPerUm float64      // F/µm (all models: cap bookkeeping)
	KPerUm float64      // s/µm (Linear model)
	Repeat RepeatParams // Repeated model
	// MergeDelay is a fixed delay added at every two-child merge node —
	// the junction repeater of a buffered top-level tree. It is common to
	// both branches of the merge, so balance within the merge is
	// unaffected, and the bottom-up recursion carries it into higher-level
	// balancing (subtrees with more merge levels get correspondingly less
	// wire). Zero for pure-wire trees.
	MergeDelay float64 // s
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.CPerUm <= 0 || math.IsNaN(p.CPerUm) {
		return fmt.Errorf("dme: bad wire cap %g", p.CPerUm)
	}
	if p.MergeDelay < 0 || math.IsNaN(p.MergeDelay) {
		return fmt.Errorf("dme: bad merge delay %g", p.MergeDelay)
	}
	switch p.Model {
	case Elmore:
		if p.RPerUm <= 0 || math.IsNaN(p.RPerUm) {
			return fmt.Errorf("dme: bad wire resistance %g", p.RPerUm)
		}
	case Linear:
		if p.KPerUm <= 0 || math.IsNaN(p.KPerUm) {
			return fmt.Errorf("dme: bad linear delay rate %g", p.KPerUm)
		}
	case Repeated:
		if p.RPerUm <= 0 || math.IsNaN(p.RPerUm) {
			return fmt.Errorf("dme: bad wire resistance %g", p.RPerUm)
		}
		r := p.Repeat
		if r.Rd <= 0 || r.T0 < 0 || r.Cin <= 0 || r.Spacing <= 0 {
			return fmt.Errorf("dme: bad repeater params %+v", r)
		}
	default:
		return fmt.Errorf("dme: unknown model %d", int(p.Model))
	}
	return nil
}

// edgeDelay returns the delay of an edge of length e driving downstream
// capacitance load under the configured model.
func (p Params) edgeDelay(e, load float64) float64 {
	switch p.Model {
	case Linear:
		return p.KPerUm * e
	case Repeated:
		return p.repeatedDelay(e)
	default:
		return p.RPerUm * e * (p.CPerUm*e/2 + load)
	}
}

// segments returns the repeater-segment count of an edge of length e.
// Even a zero-length edge counts one segment: the junction repeater at its
// top physically exists and drives the node below — omitting its delay
// would make every snake-case (zero-length) merge a full repeater delay
// optimistic.
func (p Params) segments(e float64) float64 {
	n := math.Ceil(e/p.Repeat.Spacing - 1e-12)
	if n < 1 {
		n = 1
	}
	return n
}

// repeatedDelay evaluates the Repeated edge model at length e.
func (p Params) repeatedDelay(e float64) float64 {
	if e < 0 {
		e = 0
	}
	return p.repeatedDelayN(e, p.segments(e))
}

// repeatedDelayN evaluates the Repeated model with a fixed segment count:
// D(e; n) = (r·c/2n)·e² + (Rd·c + r·Cin)·e + n·(T0 + Rd·Cin).
func (p Params) repeatedDelayN(e, n float64) float64 {
	rp := p.Repeat
	return p.RPerUm*p.CPerUm/(2*n)*e*e + (rp.Rd*p.CPerUm+p.RPerUm*rp.Cin)*e + n*(rp.T0+rp.Rd*rp.Cin)
}

// ExtendForDelay returns an edge length e' ≥ e whose model delay exceeds
// the delay at length e by lag. Construction-time balance trimming uses it
// to slow a fast subtree by lengthening its feeding edge.
func (p Params) ExtendForDelay(e, lag float64) float64 {
	if lag <= 0 {
		return e
	}
	switch p.Model {
	case Linear:
		return e + lag/p.KPerUm
	case Repeated:
		return p.extendRepeated(e, lag)
	default:
		// Elmore, conservatively with no lumped endpoint load:
		// lag = (r·c/2)·(e'² − e²).
		return math.Sqrt(e*e + 2*lag/(p.RPerUm*p.CPerUm))
	}
}

// extendRepeated returns an edge length e' ≥ e whose Repeated-model delay
// equals delay(e) + lag, staying within the current segment-count branch
// when possible (in-branch extension is continuous). When the branch runs
// out before the lag is absorbed, the walk crosses into longer branches;
// a residual smaller than one repeater-count jump may remain, in which
// case the closest achievable length is returned.
func (p Params) extendRepeated(e, lag float64) float64 {
	if lag <= 0 {
		return e
	}
	target := p.repeatedDelay(e) + lag
	n := p.segments(e)
	if n < 1 {
		n = 1
	}
	for guard := 0; guard < 1<<20; guard++ {
		// Solve D(e'; n) = target within the branch.
		rp := p.Repeat
		a2 := p.RPerUm * p.CPerUm / (2 * n)
		a1 := rp.Rd*p.CPerUm + p.RPerUm*rp.Cin
		a0 := n*(rp.T0+rp.Rd*rp.Cin) - target
		disc := a1*a1 - 4*a2*a0
		if disc >= 0 {
			if cand := (-a1 + math.Sqrt(disc)) / (2 * a2); cand >= e && cand <= n*rp.Spacing+1e-9 {
				return cand
			}
		}
		// Branch exhausted: the target sits in (or past) the repeater-
		// count jump. If it falls inside the jump, pick the nearer rim —
		// undershooting at the branch end or overshooting at the next
		// branch's start — so the residual never exceeds half a jump.
		end := n * rp.Spacing
		if over := p.repeatedDelayN(end, n+1); over > target {
			if under := p.repeatedDelayN(end, n); target-under <= over-target {
				return end
			}
			// Nudge past the boundary so downstream ceil() sees n+1
			// segments.
			return end * (1 + 1e-9)
		}
		e = end
		n++
	}
	return e
}

// State is the bottom-up result for one subtree: where it can be joined
// and what it presents there.
type State struct {
	ms    geom.TRR // merging segment
	delay float64  // delay from the segment to every sink below (equal by construction)
	cap   float64  // total downstream capacitance seen at the segment, F
}

// SinkState returns the state of a lone sink: a point segment carrying the
// sink's own delay offset and pin capacitance.
func SinkState(s ctree.Sink) State {
	return State{ms: geom.PointTRR(s.Loc), delay: s.Delay, cap: s.Cap}
}

// Embed computes the zero-skew embedding in place: it fills Loc and EdgeLen
// for every node of t. Leaf locations (sink positions) are respected.
func Embed(t *ctree.Tree, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if t.Root == ctree.NoNode {
		return errors.New("dme: tree has no root")
	}
	st := make([]State, len(t.Nodes))
	// Merge lengths of every child edge; a unary node's child keeps the
	// length it had.
	edge := make([]float64, len(t.Nodes))
	for i := range t.Nodes {
		edge[i] = t.Nodes[i].EdgeLen
	}
	if err := mergeUp(t, p, st, edge, t.Root); err != nil {
		return err
	}
	return Place(t, st, edge, t.Root, t.SrcLoc)
}

// mergeUp fills st for the subtree under v, and edge for its child edges.
func mergeUp(t *ctree.Tree, p Params, st []State, edge []float64, v int) error {
	n := &t.Nodes[v]
	for _, k := range n.Kids {
		if k != ctree.NoNode {
			if err := mergeUp(t, p, st, edge, k); err != nil {
				return err
			}
		}
	}
	switch t.NumKids(v) {
	case 0:
		if n.SinkIdx == ctree.NoSink {
			return fmt.Errorf("dme: leaf node %d has no sink", v)
		}
		st[v] = SinkState(t.Sinks[n.SinkIdx])
	case 1:
		// Degenerate unary node: inherit the child state unchanged.
		k := n.Kids[0]
		if k == ctree.NoNode {
			k = n.Kids[1]
		}
		st[v] = st[k]
	case 2:
		a, b := n.Kids[0], n.Kids[1]
		var err error
		if st[v], edge[a], edge[b], err = Merge(st[a], st[b], p); err != nil {
			return fmt.Errorf("dme: merging node %d: %w", v, err)
		}
	}
	return nil
}

// Place embeds the subtree of t under r top-down, given its bottom-up
// states and merge lengths (indexed by node): r goes to the point of its
// merging segment nearest q, with a zero feeding edge; every other
// internal node to the point of its segment nearest its placed parent;
// every leaf to its sink. Each edge takes its merge length, raised to the
// Manhattan distance it spans where rounding left it a hair short. Embed
// places a whole tree from its clock source; cts places subtrees of one
// shared bipartition, so the merge lengths stay untouched in edge.
func Place(t *ctree.Tree, st []State, edge []float64, r int, q geom.Point) error {
	t.Nodes[r].Loc = st[r].ms.ClosestPointTo(q)
	t.Nodes[r].EdgeLen = 0
	return placeBelow(t, st, edge, r)
}

func placeBelow(t *ctree.Tree, st []State, edge []float64, v int) error {
	at := t.Nodes[v].Loc
	for _, k := range t.Nodes[v].Kids {
		if k == ctree.NoNode {
			continue
		}
		n := &t.Nodes[k]
		if n.SinkIdx != ctree.NoSink {
			n.Loc = t.Sinks[n.SinkIdx].Loc
		} else {
			n.Loc = st[k].ms.ClosestPointTo(at)
		}
		// Numerical safety: electrical length must cover geometric distance.
		n.EdgeLen = edge[k]
		if d := n.Loc.Dist(at); n.EdgeLen < d {
			if n.EdgeLen < d-1e-6 {
				return fmt.Errorf("dme: internal error: edge %d→%d electrical length %.6f below distance %.6f",
					v, k, n.EdgeLen, d)
			}
			n.EdgeLen = d
		}
		if err := placeBelow(t, st, edge, k); err != nil {
			return err
		}
	}
	return nil
}

// Merge joins two subtree states under a new node: it returns the node's
// state and the electrical lengths of its edges to a and b, chosen so the
// two delays balance. It implements the classic zero-skew merge: the
// balance point is linear in the split position (bisected under the
// Repeated model); infeasible splits snake the faster side.
func Merge(a, b State, p Params) (s State, ea, eb float64, err error) {
	var ms geom.TRR
	c := p.CPerUm
	d := a.ms.Dist(b.ms)
	var x float64
	switch p.Model {
	case Linear:
		// ta + k·x = tb + k·(d−x) → x linear, trivially.
		x = (d + (b.delay-a.delay)/p.KPerUm) / 2
	case Repeated:
		// g(x) = (ta + D(x)) − (tb + D(d−x)) is monotone increasing with
		// repeater-count jumps; bisect to the balance locus.
		g := func(x float64) float64 {
			return a.delay + p.repeatedDelay(x) - b.delay - p.repeatedDelay(d-x)
		}
		switch {
		case g(0) >= 0:
			x = -1 // a is slower even with no wire: snake b
		case g(d) <= 0:
			x = d + 1 // b is slower: snake a
		default:
			lo, hi := 0.0, d
			for i := 0; i < 100; i++ {
				mid := (lo + hi) / 2
				// Once mid rounds onto an end, this step leaves (lo, hi)
				// where every further step maps it to itself: g is pure,
				// so the next mid and branch repeat exactly.
				last := mid == lo || mid == hi
				if g(mid) <= 0 {
					lo = mid
				} else {
					hi = mid
				}
				if last {
					break
				}
			}
			x = (lo + hi) / 2
		}
	default: // Elmore
		r := p.RPerUm
		// Solve ta + r·x(c·x/2 + Ca) = tb + r·(d−x)(c·(d−x)/2 + Cb); the
		// quadratic terms cancel, leaving x linear.
		den := r * (c*d + a.cap + b.cap)
		if den > 0 {
			x = (b.delay - a.delay + r*c*d*d/2 + r*b.cap*d) / den
		} else {
			// No wire and no cap on either side: any split works.
			x = d / 2
		}
	}
	switch {
	case x >= 0 && x <= d:
		ea, eb = x, d-x
		var ok bool
		ms, ok = geom.MergeRegion(a.ms, b.ms, ea, eb)
		if !ok {
			// Float rounding can leave the inflated regions short of
			// touching by an ulp; retry with a hair of slack.
			ms, ok = geom.MergeRegion(a.ms, b.ms, ea+1e-9, eb+1e-9)
			if !ok {
				return State{}, 0, 0, fmt.Errorf("exact split infeasible (d=%g ea=%g)", d, ea)
			}
		}
	case x < 0:
		// Side a is too slow even with a zero-length edge: place the merge
		// on a's segment and snake b's edge.
		ea = 0
		if p.Model == Repeated {
			// Side a still pays its zero-length edge's junction repeater.
			eb = p.extendRepeated(d, a.delay+p.repeatedDelay(0)-b.delay-p.repeatedDelay(d))
		} else {
			eb = snakeLength(a.delay-b.delay, b.cap, p)
		}
		if eb < d {
			eb = d // numerical guard; cannot be shorter than the distance
		}
		var ok bool
		ms, ok = geom.MergeRegion(a.ms, b.ms, 0, eb)
		if !ok {
			return State{}, 0, 0, fmt.Errorf("snaked merge infeasible (d=%g eb=%g)", d, eb)
		}
	default: // x > d
		eb = 0
		if p.Model == Repeated {
			ea = p.extendRepeated(d, b.delay+p.repeatedDelay(0)-a.delay-p.repeatedDelay(d))
		} else {
			ea = snakeLength(b.delay-a.delay, a.cap, p)
		}
		if ea < d {
			ea = d
		}
		var ok bool
		ms, ok = geom.MergeRegion(a.ms, b.ms, ea, 0)
		if !ok {
			return State{}, 0, 0, fmt.Errorf("snaked merge infeasible (d=%g ea=%g)", d, ea)
		}
	}
	var da, db float64
	if p.Model == Repeated {
		// Fixed-point refinement: the junction repeater at the merge node
		// drives the first segment of *both* child edges, so each path is
		// undercharged by the other branch's share; the bisected split can
		// also land inside a repeater-count jump. Both residuals are
		// closed by extending the faster side (extension changes its first
		// segment, hence the junction charges — iterate).
		rp := p.Repeat
		for it := 0; it < 6; it++ {
			jA := rp.Rd*(p.CPerUm*p.firstSeg(eb)+rp.Cin) + rp.SlewPenalty
			jB := rp.Rd*(p.CPerUm*p.firstSeg(ea)+rp.Cin) + rp.SlewPenalty
			da = a.delay + p.repeatedDelay(ea) + jA
			db = b.delay + p.repeatedDelay(eb) + jB
			diff := db - da
			if math.Abs(diff) < 1e-16 {
				break
			}
			if diff > 0 {
				ea = p.extendRepeated(ea, diff)
			} else {
				eb = p.extendRepeated(eb, -diff)
			}
		}
		if ea+eb > d { // snaked/extended: recompute the merge region
			var ok bool
			ms, ok = geom.MergeRegion(a.ms, b.ms, ea, eb)
			if !ok {
				return State{}, 0, 0, fmt.Errorf("extended merge infeasible (d=%g ea=%g eb=%g)", d, ea, eb)
			}
		}
	} else {
		da = a.delay + p.edgeDelay(ea, a.cap)
		db = b.delay + p.edgeDelay(eb, b.cap)
	}
	if db > da {
		da = db
	}
	s = State{ms: ms, delay: da + p.MergeDelay, cap: a.cap + b.cap + c*(ea+eb)}
	return s, ea, eb, nil
}

// snakeLength returns the wire length e whose edge delay into downstream
// cap capLoad equals the given lag (s) — the snaked-edge length that slows
// the faster subtree into balance. Under the Elmore model this solves
// r·e·(c·e/2 + capLoad) = lag (positive quadratic root); under the linear
// model it is simply lag/k.
func snakeLength(lag, capLoad float64, p Params) float64 {
	if lag <= 0 {
		return 0
	}
	if p.Model == Linear {
		return lag / p.KPerUm
	}
	// (r·c/2)·e² + (r·capLoad)·e − lag = 0
	A := p.RPerUm * p.CPerUm / 2
	B := p.RPerUm * capLoad
	disc := B*B + 4*A*lag
	return (-B + math.Sqrt(disc)) / (2 * A)
}

// SubtreeDelay returns the balanced delay and total capacitance of the
// subtree under root, re-derived bottom-up from its embedded edge lengths
// (EdgeLen is authoritative).
func SubtreeDelay(t *ctree.Tree, root int, p Params) (delay, totalCap float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	delay, totalCap = p.subtree(t, root)
	return delay, totalCap, nil
}

// subtree folds each child, in kid order, into its parent: the parent's
// cap sums the children's caps plus their edges' wire, and its delay is
// the slowest child path, plus MergeDelay at a two-child node.
func (p Params) subtree(t *ctree.Tree, v int) (delay, cap float64) {
	n := &t.Nodes[v]
	if t.IsLeaf(v) {
		s := t.Sinks[n.SinkIdx]
		return s.Delay, s.Cap
	}
	for _, k := range n.Kids {
		if k == ctree.NoNode {
			continue
		}
		dk, ck := p.subtree(t, k)
		e := t.Nodes[k].EdgeLen
		cap += ck + p.CPerUm*e
		if dd := dk + p.edgeDelay(e, ck); dd > delay {
			delay = dd
		}
	}
	if t.NumKids(v) == 2 {
		delay += p.MergeDelay
	}
	return delay, cap
}
