package core

import (
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
	Iters     int
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

// RepairSkew equalizes sink arrival times by wire snaking: every sink's
// lag behind the latest sink is scheduled onto tree edges (highest common
// ancestor first, so shared wire serves whole subtrees), converted to
// extra electrical length via the local Elmore load, and applied with
// damping. Each snake is clipped so the projected transition at the pins
// below stays under the slew bound; lag that cannot be placed on an edge
// falls through to deeper edges with more headroom. Iterates with full
// re-analysis until the skew target is met or the iteration budget runs
// out. Edge lengths only grow; rules and buffers are untouched.
func RepairSkew(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew, targetSkew float64, maxIters int) (RepairStats, error) {
	return RepairToTargets(t, te, lib, inSlew, nil, targetSkew, maxIters)
}

// RepairToTargets is the useful-skew generalization of RepairSkew: every
// sink i aims at arrival base + targets[i] (indexed by sink order, i.e.
// Tree.Sinks). Convergence means the spread of target-adjusted arrivals
// (arrival − target) is at most tol — with zero targets this is exactly
// the global skew. A clock scheduler derives targets from launch/capture
// slacks; this routine realizes them with wire.
func RepairToTargets(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, targets []float64, tol float64, maxIters int) (RepairStats, error) {
	return repairToTargets(sta.NewIncremental(te, lib), t, te, lib, inSlew, targets, tol, maxIters)
}

// repairToTargets runs the repair loop against a caller-supplied timing
// engine, so Optimize's repair rounds share one engine (and its
// incremental state) with the rest of the run. Every edge edit — snakes
// and rollback restores alike — is reported through tim.Touch.
func repairToTargets(tim timer, t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, targets []float64, tol float64, maxIters int) (RepairStats, error) {
	if tol <= 0 {
		return RepairStats{}, fmt.Errorf("core: non-positive tolerance %g", tol)
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
	lag := make([]float64, len(t.Nodes))
	given := make([]float64, len(t.Nodes))
	drv := make([]int, len(t.Nodes))
	rdDrv := make([]float64, len(t.Nodes))
	worstBelow := make([]float64, len(t.Nodes))
	budgetSq := make([]float64, len(t.Nodes))
	slewCeil := repairSlewCeil * te.MaxSlew
	damping := repairDamping
	// Divergence guard: wire snaking has second-order couplings (stage
	// loads degrade driver transitions, the arrival maximum chases its own
	// repairs). Any iteration that fails to improve the skew is rolled
	// back and retried at half strength; repair therefore never leaves the
	// tree worse than it found it.
	prevSkew := math.Inf(1)
	baseViol := -1
	snapshot := make([]float64, len(t.Nodes))
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
			// iteration back and try gentler corrections.
			for i := range t.Nodes {
				if t.Nodes[i].EdgeLen != snapshot[i] {
					t.Nodes[i].EdgeLen = snapshot[i]
					tim.Touch(i)
				}
			}
			st.AddedWire = snapWire
			damping /= 2
			if damping < 0.05 {
				break
			}
			res, err = tim.Analyze(t, inSlew)
			if err != nil {
				return st, err
			}
			skew, arrMax = adjSpread(res)
			st.FinalSkew = skew
		}
		prevSkew = skew
		for i := range t.Nodes {
			snapshot[i] = t.Nodes[i].EdgeLen
		}
		snapWire = st.AddedWire
		st.Iters++

		// Stage ownership and per-stage linearized driver resistance: a
		// snake's wire capacitance also loads its stage driver, slowing
		// the whole stage by Rd·c·dl — a first-order term the snake-length
		// solve must include or every application overshoots.
		t.PreOrder(func(v int) {
			p := t.Nodes[v].Parent
			if p == ctree.NoNode {
				drv[v] = v
				return
			}
			if t.Nodes[p].BufIdx != ctree.NoBuf {
				drv[v] = p
			} else {
				drv[v] = drv[p]
			}
		})
		for _, u := range res.Drivers {
			b := &lib.Buffers[t.Nodes[u].BufIdx]
			rdDrv[u] = buffering.Linearize(b, res.Slew[u]).Rd
		}

		// Worst transition in the subtree below each node: snaking an edge
		// raises slews downstream of it, so the allowance is set by the
		// most critical pin below.
		t.PostOrder(func(v int) {
			w := 0.0
			if t.Nodes[v].BufIdx != ctree.NoBuf || t.IsLeaf(v) {
				w = res.Slew[v]
			}
			for _, k := range t.Nodes[v].Kids {
				if k != ctree.NoNode && worstBelow[k] > w {
					w = worstBelow[k]
				}
			}
			worstBelow[v] = w
		})

		// Bottom-up: lag[v] = the delay every sink below v still needs.
		t.PostOrder(func(v int) {
			if t.IsLeaf(v) {
				lag[v] = arrMax + targetOf(v) - res.Arrival[v]
				return
			}
			m := math.Inf(1)
			for _, k := range t.Nodes[v].Kids {
				if k != ctree.NoNode && lag[k] < m {
					m = lag[k]
				}
			}
			lag[v] = m
		})
		// Top-down: every edge absorbs a small share of its subtree's
		// unmet lag; the remainder cascades to deeper edges in the same
		// iteration. A squared-transition budget, refreshed at every
		// stage boundary (buffers regenerate the signal), bounds the
		// joint RSS slew impact of all snakes along a path.
		applied := false
		t.PreOrder(func(v int) {
			p := t.Nodes[v].Parent
			if p == ctree.NoNode {
				given[v] = 0
				budgetSq[v] = 0
				return
			}
			given[v] = given[p]
			if t.Nodes[p].BufIdx != ctree.NoBuf {
				// New stage: fresh budget from this subtree's most
				// critical pin.
				budgetSq[v] = math.Max(0, slewCeil*slewCeil-worstBelow[v]*worstBelow[v])
			} else {
				budgetSq[v] = budgetSq[p]
			}
			need := lag[v] - given[p]
			if need <= 1e-15 || budgetSq[v] <= 0 {
				return
			}
			delta := math.Min(need*damping, repairPerEdgeDelta)
			// Respect the remaining slew budget: the snake's step slew is
			// ln9·(its wire Elmore) in RSS with everything else on the
			// path.
			wireDelta := delta
			if sq := rctree.Ln9 * rctree.Ln9 * wireDelta * wireDelta; sq > budgetSq[v] {
				wireDelta = math.Sqrt(budgetSq[v]) / rctree.Ln9
				delta = wireDelta
			}
			dl := snakeForStage(delta, t.Nodes[v].Rule, res.DownCap[v], rdDrv[drv[v]], te)
			if dl <= 0 {
				return
			}
			t.Nodes[v].EdgeLen += dl
			tim.Touch(v)
			st.AddedWire += dl
			given[v] += delta
			budgetSq[v] -= rctree.Ln9 * rctree.Ln9 * wireDelta * wireDelta
			applied = true
		})
		if !applied {
			break // every lagging path is slew-blocked; give up
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
		for i := range t.Nodes {
			if t.Nodes[i].EdgeLen != snapshot[i] {
				t.Nodes[i].EdgeLen = snapshot[i]
				tim.Touch(i)
			}
		}
		st.AddedWire = snapWire
		st.FinalSkew = prevSkew
	}
	st.Converged = st.FinalSkew <= targetSkew
	return st, nil
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
