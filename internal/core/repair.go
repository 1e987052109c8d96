package core

import (
	"context"
	"fmt"
	"math"

	"smartndr/internal/buffering"
	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/rctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// RepairStats reports a skew-repair run.
type RepairStats struct {
	Iters     int     // plans applied
	Rollbacks int     // applied plans undone: no skew progress, or a broken transition
	AddedWire float64 // µm of snaking inserted
	FinalSkew float64 // s
	Converged bool
}

// repairDamping scales each iteration's computed snakes below the exact
// solution: added wire raises stage loads and driver delays, which the
// Elmore-only estimate does not see, so full-strength corrections
// overshoot and oscillate.
const repairDamping = 0.85

// repairSlewCeil is the transition level snaking may push a pin to,
// relative to the technology bound.
const repairSlewCeil = 0.95

// repairPerEdgeDelta caps the delay one edge may absorb per iteration.
// The squared-slew budget is the primary limiter; this cap only prevents a
// single iteration from committing one huge snake whose second-order load
// effects (driver slew degradation) the budget cannot see. It must stay
// large enough that lag concentrates on high-load edges near stage roots,
// where wire snaking is capacitance-cheap — tiny quotas would push the lag
// into leaf edges where a picosecond costs tens of microns of wire.
const repairPerEdgeDelta = 30e-12

// RepairToTargets equalizes sink arrival times by wire snaking. Every
// sink i aims at arrival base + targets[i] (indexed by sink order, i.e.
// Tree.Sinks); nil targets aim every sink at the same arrival. Each
// sink's lag behind the latest target-adjusted sink is scheduled onto
// tree edges (highest common ancestor first, so shared wire serves whole
// subtrees), converted to extra electrical length via the local Elmore
// load, and applied with damping. Each snake is clipped so the projected
// transition at the pins below stays under the slew bound; lag that
// cannot be placed on an edge falls through to deeper edges with more
// headroom. It iterates with full re-analysis until the spread of
// target-adjusted arrivals (arrival − target) is at most tol — with nil
// targets exactly the global skew — or the iteration budget runs out.
// Edge lengths only grow; rules and buffers are untouched. A clock
// scheduler derives targets from launch/capture slacks; this routine
// realizes them with wire.
//
// Every state is timed by a full pass on up to workers goroutines (see
// sta.NewParallel): snakes dirty stages all over the tree, so a
// dirty-region update costs what a full pass costs. The result is the
// same bit for bit at any worker count. ctx is checked once per
// iteration, before the state is timed; once it is done, its error is
// returned with the tree in the state that iteration would have timed.
func RepairToTargets(ctx context.Context, t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, targets []float64, tol float64, maxIters, workers int) (RepairStats, error) {
	sc := newRepairScratch(len(t.Nodes))
	return repairToTargets(sta.NewParallel(ctx, te, lib, workers), &sc, t, te, lib, inSlew, targets, tol, maxIters)
}

// repairScratch is the repair loop's storage: five per-node arrays in
// one float slab, and the stack of its snaking walk. Optimize allocates
// one for all its repair rounds.
//
// The plan fields describe the last accepted state: the lag every sink
// below each node still needs, the worst transition below each node, the
// linearized resistance of each stage driver, and each node's downstream
// cap. The cap is a copy because it is the one Result field apply reads,
// and the engine overwrites its Result when it analyses the next state.
// Keeping the plan lets a rolled-back iteration apply it again at half the
// damping without timing or walking the restored state again.
type repairScratch struct {
	lag, worstBelow, rdDrv, downCap []float64 // plan of the accepted state
	snapshot                        []float64 // edge lengths of the accepted state
	stack                           []repairFrame
}

// repairFrame is a node on apply's walk with what the path above hands
// it: the delay already given to every sink below, the squared-transition
// budget left in its stage, and its stage driver's resistance.
type repairFrame struct {
	v                   int
	given, budgetSq, rd float64
}

func newRepairScratch(n int) repairScratch {
	slab := make([]float64, 5*n)
	next := func() []float64 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	var sc repairScratch
	sc.lag, sc.worstBelow, sc.rdDrv, sc.downCap, sc.snapshot = next(), next(), next(), next(), next()
	return sc
}

// repairToTargets runs the repair loop against a caller-supplied timing
// engine and scratch. RepairToTargets hands it a full-pass engine;
// Optimize hands it the dirty-region engine its sweeps and recoveries
// share, so the queries after a repair round update from the round's
// state instead of timing the tree again. Every edge edit — snakes and
// rollback restores alike — is reported through tim.Touch.
//
// Each iteration times one state: the input tree first, then the state
// the previous iteration's snakes produced. A state that improves is
// accepted and planned from; one that does not is rolled back, and the
// accepted state's plan, still in sc, is applied again at half the
// damping. The engine sees the restored edges
// as pending edits, so its next Analyze, of the next snaked state or the
// caller's next query, is still exact. An engine whose context is done
// (see sta.NewParallel) fails the iteration's query, which ends the loop
// with the context's error.
func repairToTargets(tim timer, sc *repairScratch, t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, targets []float64, tol float64, maxIters int) (RepairStats, error) {
	if !(tol > 0) {
		return RepairStats{}, fmt.Errorf("core: non-positive tolerance %g", tol)
	}
	if maxIters < 1 {
		return RepairStats{}, fmt.Errorf("core: non-positive iteration budget %d", maxIters)
	}
	if targets != nil && len(targets) != len(t.Sinks) {
		return RepairStats{}, fmt.Errorf("core: %d targets for %d sinks", len(targets), len(t.Sinks))
	}
	targetOf := func(nodeIdx int) float64 {
		if targets == nil {
			return 0
		}
		return targets[t.Nodes[nodeIdx].SinkIdx]
	}
	adjSpread := func(res *sta.Result) (spread, adjMax float64) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range t.Nodes {
			if t.Nodes[i].SinkIdx == ctree.NoSink {
				continue
			}
			a := res.Arrival[i] - targetOf(i)
			lo = math.Min(lo, a)
			hi = math.Max(hi, a)
		}
		return hi - lo, hi
	}
	targetSkew := tol
	var st RepairStats
	slewCeil := repairSlewCeil * te.MaxSlew
	damping := repairDamping
	// Divergence guard: wire snaking has second-order couplings (stage
	// loads degrade driver transitions, the arrival maximum chases its own
	// repairs). Any iteration that fails to improve the skew is rolled
	// back and retried at half strength; repair therefore never leaves the
	// tree worse than it found it.
	prevSkew := math.Inf(1)
	baseViol := -1
	snapWire := 0.0
	for it := 0; it < maxIters; it++ {
		res, err := tim.Analyze(t, inSlew)
		if err != nil {
			return st, err
		}
		if baseViol < 0 {
			baseViol = res.SlewViolations(te.MaxSlew)
		}
		skew, arrMax := adjSpread(res)
		st.FinalSkew = skew
		if skew <= targetSkew {
			st.Converged = true
			return st, nil
		}
		if it > 0 && (skew >= prevSkew*0.999 || res.SlewViolations(te.MaxSlew) > baseViol) {
			// No skew progress, or the snakes' second-order load effects
			// broke a transition the budget model missed: roll the last
			// iteration back and try gentler corrections. The restored
			// state is the accepted one, timed and planned already.
			sc.restore(t, tim)
			st.AddedWire = snapWire
			st.FinalSkew = prevSkew
			st.Rollbacks++
			damping /= 2
			if damping < 0.05 {
				return st, nil
			}
		} else {
			prevSkew = skew
			for i := range t.Nodes {
				sc.snapshot[i] = t.Nodes[i].EdgeLen
			}
			snapWire = st.AddedWire
			sc.plan(t, lib, res, arrMax, targetOf)
		}
		st.Iters++
		if !sc.apply(t, te, tim, damping, slewCeil, &st) {
			// Every lagging path is slew-blocked; the tree is the
			// accepted state.
			return st, nil
		}
	}
	res, err := tim.Analyze(t, inSlew)
	if err != nil {
		return st, err
	}
	st.FinalSkew, _ = adjSpread(res)
	if st.FinalSkew > prevSkew || res.SlewViolations(te.MaxSlew) > baseViol {
		// The last (unvetted) iteration made things worse: keep the best
		// state instead.
		sc.restore(t, tim)
		st.AddedWire = snapWire
		st.FinalSkew = prevSkew
		st.Rollbacks++
	}
	st.Converged = st.FinalSkew <= targetSkew
	return st, nil
}

// restore puts the accepted state's edge lengths back, reporting every
// edge it changes.
func (sc *repairScratch) restore(t *ctree.Tree, tim timer) {
	for i := range t.Nodes {
		if t.Nodes[i].EdgeLen != sc.snapshot[i] {
			t.Nodes[i].EdgeLen = sc.snapshot[i]
			tim.Touch(i)
		}
	}
}

// plan derives the repair plan from the analysis of the accepted state,
// whose latest target-adjusted sink arrival is arrMax.
func (sc *repairScratch) plan(t *ctree.Tree, lib *cell.Library, res *sta.Result, arrMax float64, targetOf func(int) float64) {
	// Per-stage linearized driver resistance: a snake's wire capacitance
	// also loads its stage driver, slowing the whole stage by Rd·c·dl — a
	// first-order term the snake-length solve must include or every
	// application overshoots.
	for _, u := range res.Drivers {
		b := &lib.Buffers[t.Nodes[u].BufIdx]
		sc.rdDrv[u] = buffering.Linearize(b, res.Slew[u]).Rd
	}
	copy(sc.downCap, res.DownCap)

	// Bottom-up, two quantities per node. The worst transition in the
	// subtree below it: snaking an edge raises slews downstream of it, so
	// the allowance is set by the most critical pin below. And its lag:
	// the delay every sink below it still needs.
	worstBelow, lag := sc.worstBelow, sc.lag
	t.PostOrder(func(v int) {
		n := &t.Nodes[v]
		w, m := 0.0, math.Inf(1)
		if n.BufIdx != ctree.NoBuf || t.IsLeaf(v) {
			w = res.Slew[v]
		}
		for _, k := range n.Kids {
			if k == ctree.NoNode {
				continue
			}
			if worstBelow[k] > w {
				w = worstBelow[k]
			}
			if lag[k] < m {
				m = lag[k]
			}
		}
		worstBelow[v] = w
		if t.IsLeaf(v) {
			m = arrMax + targetOf(v) - res.Arrival[v]
		}
		lag[v] = m
	})
}

// apply snakes the tree by the plan at the given damping, adding the wire
// to st.AddedWire and reporting every edit through tim.Touch. It returns
// false when no edge took any wire.
func (sc *repairScratch) apply(t *ctree.Tree, te *tech.Tech, tim timer, damping, slewCeil float64, st *RepairStats) bool {
	// Top-down: every edge absorbs a small share of its subtree's unmet
	// lag; the remainder cascades to deeper edges in the same iteration. A
	// squared-transition budget, refreshed at every stage boundary
	// (buffers regenerate the signal), bounds the joint RSS slew impact of
	// all snakes along a path. The walk visits nodes in ctree's PreOrder
	// order, the order the wire total is summed in.
	applied := false
	stack := append(sc.stack[:0], repairFrame{v: t.Root, rd: sc.rdDrv[t.Root]})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.v != t.Root && sc.snake(t, te, tim, &f, damping, st) {
			applied = true
		}
		for _, k := range t.Nodes[f.v].Kids {
			if k == ctree.NoNode {
				continue
			}
			kid := repairFrame{v: k, given: f.given, budgetSq: f.budgetSq, rd: f.rd}
			if t.Nodes[f.v].BufIdx != ctree.NoBuf {
				// New stage: fresh budget from this subtree's most
				// critical pin.
				kid.budgetSq = math.Max(0, slewCeil*slewCeil-sc.worstBelow[k]*sc.worstBelow[k])
				kid.rd = sc.rdDrv[f.v]
			}
			stack = append(stack, kid)
		}
	}
	sc.stack = stack
	return applied
}

// snake lengthens the edge into f.v by its share of the lag the path
// above left unmet, within the stage's remaining transition budget, and
// updates f's given delay and budget for the nodes below. It reports
// whether the edge took any wire.
func (sc *repairScratch) snake(t *ctree.Tree, te *tech.Tech, tim timer, f *repairFrame, damping float64, st *RepairStats) bool {
	v := f.v
	need := sc.lag[v] - f.given
	if need <= 1e-15 || f.budgetSq <= 0 {
		return false
	}
	delta := math.Min(need*damping, repairPerEdgeDelta)
	// Respect the remaining slew budget: the snake's step slew is
	// ln9·(its wire Elmore) in RSS with everything else on the path.
	wireDelta := delta
	if sq := rctree.Ln9 * rctree.Ln9 * wireDelta * wireDelta; sq > f.budgetSq {
		wireDelta = math.Sqrt(f.budgetSq) / rctree.Ln9
		delta = wireDelta
	}
	dl := snakeForStage(delta, t.Nodes[v].Rule, sc.downCap[v], f.rd, te)
	if dl <= 0 {
		return false
	}
	t.Nodes[v].EdgeLen += dl
	tim.Touch(v)
	st.AddedWire += dl
	f.given += delta
	f.budgetSq -= rctree.Ln9 * rctree.Ln9 * wireDelta * wireDelta
	return true
}

// snakeForStage returns the extra wire length on an edge with the given
// rule and within-stage downstream load that adds `delta` seconds of
// delay. Besides the snake's own Elmore term r·e·(c·e/2 + load), it
// charges the stage-driver loading term: the snake's wire capacitance c·e
// raises the driver's delay by rdDrv·c·e, which the targeted subtree
// experiences on top of the wire Elmore:
//
//	(r·c/2)·e² + (r·load + rdDrv·c)·e = delta
func snakeForStage(delta float64, rule int, load, rdDrv float64, te *tech.Tech) float64 {
	if delta <= 0 {
		return 0
	}
	r := te.Layer.RPerUm(te.Rule(rule))
	c := te.Layer.CPerUm(te.Rule(rule))
	A := r * c / 2
	B := r*load + rdDrv*c
	disc := B*B + 4*A*delta
	return (-B + math.Sqrt(disc)) / (2 * A)
}
