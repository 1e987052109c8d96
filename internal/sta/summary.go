package sta

import (
	"slices"

	"smartndr/internal/ctree"
)

// Summary is the whole-tree view a metric report reads from one
// analysis: sink arrival extremes, the worst transition, the count of
// pins over the technology's MaxSlew, and the wire inventory by length.
// Every field equals what a scan of the latest Result (and of the tree it
// analyzed) yields — Skew, MaxSinkArrival, WorstSlew and SlewViolations
// on the Result; lengths summed in node-index order over feeding edges.
type Summary struct {
	Skew           float64 // s, max−min sink arrival (0 without sinks)
	MaxSinkArrival float64 // s, −Inf without sinks
	WorstSlew      float64 // s
	SlewViol       int     // pins whose transition exceeds te.MaxSlew
	WireLen        float64 // µm, all feeding edges
	// LenByRule[ri] is the length routed under rule ri, µm. The slice
	// is owned by the engine; copy it to keep it.
	LenByRule []float64
	TrackArea float64 // µm², length × track pitch of its rule
	NDRLen    float64 // µm under non-default rules
}

// Summary returns the aggregates of the latest Full or Analyze result.
// Call it before the tree is edited again: the length sums read the
// tree's edges. The returned Summary is owned by the engine, like the
// Result.
//
// It costs what changed, not the tree. A full pass leaves every
// aggregate stale, and the first Summary after it scans. A dirty-region
// update patches the extremes and the violation count from the nodes it
// rewrote, leaving an extreme stale only when the node holding it moved
// inward (or a value is NaN). It marks the length sums stale only when
// an edge length or rule changed. Stale aggregates are recomputed here,
// from the engine's contiguous per-node arrays, in the order a scan of
// the tree uses, so the bytes match a fresh scan exactly.
func (inc *Incremental) Summary() *Summary {
	res, sum := &inc.res, &inc.sum
	if inc.arrStale {
		inc.sinkLo, inc.sinkHi = res.sinkExtremes()
		inc.arrStale = false
	}
	sum.MaxSinkArrival, sum.Skew = inc.sinkHi, 0
	if len(res.sinkNodes) > 0 {
		sum.Skew = inc.sinkHi - inc.sinkLo
	}
	if inc.slewStale {
		worst, viol, limit := 0.0, 0, inc.te.MaxSlew
		for _, s := range res.Slew {
			if s > worst {
				worst = s
			}
			if s > limit {
				viol++
			}
		}
		sum.WorstSlew, sum.SlewViol = worst, viol
		inc.slewStale = false
	}
	if inc.wireStale {
		if !inc.lenValid {
			inc.fillWire()
		}
		inc.sumWire()
		inc.wireStale = false
	}
	return sum
}

// fillWire copies each node's feeding-edge length and rule out of the
// tree into the contiguous arrays the length sums read. A parentless
// node gets zeros.
func (inc *Incremental) fillWire() {
	t := inc.tree
	n := len(t.Nodes)
	inc.wlen = slices.Grow(inc.wlen[:0], n)[:n]
	inc.rule = slices.Grow(inc.rule[:0], n)[:n]
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Parent == ctree.NoNode {
			inc.wlen[i], inc.rule[i] = 0, 0
			continue
		}
		inc.wlen[i], inc.rule[i] = nd.EdgeLen, nd.Rule
	}
	inc.lenValid = true
}

// sumWire re-sums the length inventory in node-index order.
func (inc *Incremental) sumWire() {
	te, sum := inc.te, &inc.sum
	nr := te.NumRules()
	if cap(sum.LenByRule) < nr {
		sum.LenByRule = make([]float64, nr)
		inc.pitch = make([]float64, nr)
		inc.ndr = make([]bool, nr)
	}
	lbr, pitch, ndr := sum.LenByRule[:nr], inc.pitch[:nr], inc.ndr[:nr]
	for r := range lbr {
		lbr[r] = 0
		pitch[r] = te.Layer.TrackPitch(te.Rule(r))
		ndr[r] = !te.Rule(r).IsDefault()
	}
	sum.LenByRule = lbr
	// Adding +0 to a sum changes no bit (a sum that starts at +0 never
	// reaches −0), so a default edge adding +0 to ndrLen, like the root's
	// zero length adding to every sum, is the same as skipping it. Rules
	// come in long runs along node order, so the current rule's length
	// sum and table entries live in registers (cur, run, p, isNDR), and
	// the sum goes back to lbr only when the rule changes — the same
	// adds, in the same order.
	wl, area, ndrLen := 0.0, 0.0, 0.0
	cur, run, p, isNDR := 0, 0.0, pitch[0], ndr[0]
	for i, l := range inc.wlen {
		if r := inc.rule[i]; r != cur {
			lbr[cur] = run
			cur, run, p, isNDR = r, lbr[r], pitch[r], ndr[r]
		}
		wl += l
		run += l
		area += l * p
		nl := 0.0
		if isNDR {
			nl = l
		}
		ndrLen += nl
	}
	lbr[cur] = run
	sum.WireLen, sum.TrackArea, sum.NDRLen = wl, area, ndrLen
}

// noteArrival folds one sink's arrival change, from o to a, into the
// cached extremes.
func (inc *Incremental) noteArrival(o, a float64) {
	switch {
	case inc.arrStale:
	case a != a || o != o, o == inc.sinkHi && a < o, o == inc.sinkLo && a > o:
		inc.arrStale = true // NaN, or the node held an extreme and moved inward
	default:
		inc.sinkHi = max(inc.sinkHi, a)
		inc.sinkLo = min(inc.sinkLo, a)
	}
}

// noteSlew folds one pin's transition change, from o to s, into the
// cached worst slew and violation count.
func (inc *Incremental) noteSlew(o, s float64) {
	if inc.slewStale {
		return
	}
	sum := &inc.sum
	if limit := inc.te.MaxSlew; o > limit != (s > limit) {
		if s > limit {
			sum.SlewViol++
		} else {
			sum.SlewViol--
		}
	}
	switch {
	case s > sum.WorstSlew:
		sum.WorstSlew = s
	case o == sum.WorstSlew && !(s >= o):
		inc.slewStale = true // the node held the worst and moved inward
	}
}
