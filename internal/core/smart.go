package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/obs"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// Stats reports what Optimize did. The per-pass slices are always
// populated (no sink or tracer required), so library users get
// iteration-level telemetry from the return value alone.
type Stats struct {
	Passes     int     // downgrade sweeps executed
	Downgrades int     // accepted rule reductions
	Upgrades   int     // accepted rule strengthenings (violation recovery)
	CapBefore  float64 // switched cap before optimization, F
	CapAfter   float64 // switched cap after optimization (incl. repair wire), F
	RepairWire float64 // wirelength added by skew repair, µm
	FinalSkew  float64 // s
	FinalSlew  float64 // s, worst transition

	// PassDowngrades[p] is the number of downgrades accepted in sweep p.
	PassDowngrades []int
	// PassCapDelta[p] is the switched-capacitance reduction achieved by
	// sweep p, F (measured by the next full analysis; the last entry is
	// measured against the post-cleanup final state).
	PassCapDelta []float64
	// RepairRounds counts skew-repair invocations (initial balance plus
	// every cleanup alternation).
	RepairRounds int
	// RecoverRounds counts violation-recovery sweeps in the cleanup
	// alternation (including the headroom passes).
	RecoverRounds int
}

// sinkSpan maps tree nodes to contiguous ranges of DFS-ordered sinks, so a
// subtree arrival shift is one segment-tree range-add.
type sinkSpan struct {
	lo, hi []int // per node: sink positions [lo, hi); empty if lo >= hi
	node   []int // sink position → sink node index
}

func newSinkSpan(t *ctree.Tree) *sinkSpan {
	s := &sinkSpan{lo: make([]int, len(t.Nodes)), hi: make([]int, len(t.Nodes))}
	// Explicit-stack DFS: degenerate trees (tens of thousands of serial
	// nodes) must not grow a recursion frame per node. A node is pushed
	// twice — first visit assigns lo and expands kids, second (after the
	// whole subtree) assigns hi.
	type frame struct {
		node int
		exit bool
	}
	stack := []frame{{t.Root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := f.node
		if f.exit {
			s.hi[v] = len(s.node)
			continue
		}
		s.lo[v] = len(s.node)
		if t.Nodes[v].SinkIdx != ctree.NoSink {
			s.node = append(s.node, v)
		}
		stack = append(stack, frame{v, true})
		// Push kids in reverse so they pop in natural order, preserving
		// the recursive version's DFS sink numbering exactly.
		kids := t.Nodes[v].Kids
		for i := len(kids) - 1; i >= 0; i-- {
			if kids[i] != ctree.NoNode {
				stack = append(stack, frame{kids[i], false})
			}
		}
	}
	return s
}

// Optimize performs smart NDR assignment on a buffered clock tree.
//
// Flow: (1) an initial skew repair balances the construction residue;
// (2) downgrade sweeps visit every buffer stage and move each edge to the
// cheapest rule class that keeps all stage transitions within the derated
// slew bound AND keeps the *global* skew within budget — the skew effect
// of shifting whole subtrees is tracked exactly with a segment tree;
// (3) a violation-recovery sweep upgrades any stage that the second-order
// slew cascade (input-slew drift across stages) pushed over the bound;
// (4) a final skew repair absorbs the residue. Rules and edge lengths are
// modified in place.
func Optimize(t *ctree.Tree, te *tech.Tech, lib *cell.Library, cfg Config) (*Stats, error) {
	// One timing engine for the whole run: every analysis shares its
	// buffers, and each query recomputes only the region the preceding
	// edits dirtied.
	return optimize(t, te, lib, cfg, sta.NewIncremental(te, lib))
}

// timer is the timing engine the optimizer queries: Analyze returns the
// exact analysis of the tree's current state, Touch reports an accepted
// edit to node v since the last Analyze, and Stats reads the cost
// counters. *sta.Incremental implements it; the tests substitute an
// engine that answers every query with a full pass, the reference the
// optimizer's decisions must not depend on.
type timer interface {
	Analyze(t *ctree.Tree, inSlew float64) (*sta.Result, error)
	Touch(v int)
	Stats() sta.IncStats
}

// optimize is Optimize against a caller-supplied timing engine.
func optimize(t *ctree.Tree, te *tech.Tech, lib *cell.Library, cfg Config, tim timer) (*Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(te)
	tr := cfg.Tracer
	sp := tr.Start("core.optimize", obs.I("nodes", len(t.Nodes)))
	defer sp.End()
	stats := &Stats{}
	res, err := tim.Analyze(t, cfg.InSlew)
	if err != nil {
		return nil, err
	}
	stats.CapBefore = res.TotalSwitchedCap()
	slewLimit := cfg.MaxSlew * slewSafety

	// One repair scratch serves the initial repair and every cleanup round.
	var rsc repairScratch
	if !cfg.DisableRepair {
		rsc = newRepairScratch(len(t.Nodes))
		rsp := tr.Start("init_repair")
		defer rsp.End() // error paths; no-op after the explicit End below
		rep, err := repairToTargets(tim, &rsc, t, te, lib, cfg.InSlew, nil, cfg.MaxSkew, repairIters)
		if err != nil {
			return nil, err
		}
		stats.RepairWire += rep.AddedWire
		stats.RepairRounds++
		rsp.Set(obs.I("iters", rep.Iters))
		rsp.Set(obs.I("rollbacks", rep.Rollbacks))
		rsp.Set(obs.F("added_wire_um", rep.AddedWire))
		rsp.End()
	}

	span := newSinkSpan(t)
	byCap := rulesByCap(te)
	se := newStageScratch(t, te, lib)
	arrivals := make([]float64, len(span.node))
	at := &arrTree{}
	var emFloor []float64 // one slice for every pass's EM width floors
	if cfg.EM != nil {
		emFloor = make([]float64, len(t.Nodes))
	}

	var passCap []float64 // switched cap observed at the start of each sweep
	for pass := 0; pass < maxPasses; pass++ {
		capAt, changed, err := sweep(pass, tim, se, cfg, span, at, arrivals, emFloor, byCap, slewLimit)
		if err != nil {
			return nil, err
		}
		passCap = append(passCap, capAt)
		stats.Passes++
		stats.Downgrades += changed
		stats.PassDowngrades = append(stats.PassDowngrades, changed)
		if changed == 0 {
			break
		}
	}

	// Constraint cleanup: skew repair and slew recovery interact — snakes
	// can push marginal transitions over the bound, and recovery upgrades
	// shift arrivals — so the two alternate until both are clean (or no
	// move helps). Repair itself is slew-safe (it rolls back iterations
	// that create violations), and a fresh call restarts its adaptive
	// damping, so re-invoking it after upgrades keeps making progress.
	rvsp := tr.Start("recover")
	defer rvsp.End() // no-op after the explicit End below
	up0 := recoverViolations(tim, se, cfg, slewLimit, cfg.MaxSlew, byCap)
	stats.Upgrades += up0
	stats.RecoverRounds++
	rvsp.Set(obs.I("upgrades", up0))
	rvsp.End()
	if !cfg.DisableRepair {
		csp := tr.Start("cleanup")
		defer csp.End() // error paths; no-op after the explicit End below
		prevRepair := math.Inf(1)
		rounds := 0
		for round := 0; round < 8; round++ {
			rounds = round + 1
			rep, err := repairToTargets(tim, &rsc, t, te, lib, cfg.InSlew, nil, cfg.MaxSkew, repairIters)
			if err != nil {
				return nil, err
			}
			stats.RepairWire += rep.AddedWire
			stats.RepairRounds++
			up := recoverViolations(tim, se, cfg, slewLimit, cfg.MaxSlew, byCap)
			stats.Upgrades += up
			stats.RecoverRounds++
			if rep.Converged && up == 0 {
				break
			}
			if up == 0 && rep.FinalSkew >= prevRepair*0.995 {
				// Stuck on skew with clean transitions: buy headroom on
				// the tight stages and let the next repair use it.
				headroom := 0.90 * cfg.MaxSlew
				hr := recoverViolations(tim, se, cfg, headroom, headroom, byCap)
				stats.Upgrades += hr
				stats.RecoverRounds++
				if hr == 0 {
					break // nothing left to upgrade; accept the residual
				}
			}
			prevRepair = rep.FinalSkew
		}
		csp.Set(obs.I("rounds", rounds))
		csp.End()
	}
	res, err = tim.Analyze(t, cfg.InSlew)
	if err != nil {
		return nil, err
	}
	stats.CapAfter = res.TotalSwitchedCap()
	stats.FinalSkew = res.Skew()
	stats.FinalSlew, _ = res.WorstSlew()
	// Per-sweep capacitance deltas: each sweep's gain is visible at the
	// next analysis; the last sweep is measured against the final state,
	// so cleanup upgrades and repair wire land in its entry.
	for p := range passCap {
		next := stats.CapAfter
		if p+1 < len(passCap) {
			next = passCap[p+1]
		}
		stats.PassCapDelta = append(stats.PassCapDelta, passCap[p]-next)
	}
	tr.Add("core.downgrades", float64(stats.Downgrades))
	tr.Add("core.upgrades", float64(stats.Upgrades))
	tr.Add("core.repair_wire_um", stats.RepairWire)
	// STA cost telemetry (see sta.IncStats for the visit metric). These go
	// to the tracer, not Stats, so Stats stays byte-identical whichever
	// engine answered the queries while the cost difference stays
	// observable.
	tst := tim.Stats()
	tr.Add("sta.node_visits", float64(tst.NodeVisits))
	tr.Add("sta.full_runs", float64(tst.FullRuns))
	tr.Add("sta.inc_runs", float64(tst.IncRuns))
	tr.Add("sta.cached_runs", float64(tst.CachedRuns))
	tr.Add("sta.fallbacks", float64(tst.Fallbacks))
	tr.Gauge("core.final_skew_ps", stats.FinalSkew*1e12)
	tr.Gauge("core.final_slew_ps", stats.FinalSlew*1e12)
	tr.Gauge("core.cap_saved_frac", 1-stats.CapAfter/stats.CapBefore)
	sp.Set(obs.I("passes", stats.Passes))
	sp.Set(obs.I("downgrades", stats.Downgrades))
	return stats, nil
}

// sweep runs downgrade sweep p. It visits every buffer stage and moves
// each edge to the cheapest rule class that keeps all of the stage's
// transitions within slewLimit and the global skew within budget. It
// returns the switched cap at the sweep's start and the number of
// downgrades it accepted. at, arrivals and, under an EM limit, emFloor are
// scratch the sweep rewrites.
func sweep(p int, tim timer, se *stageEval, cfg Config, span *sinkSpan, at *arrTree, arrivals, emFloor []float64, byCap []int, slewLimit float64) (capAt float64, changed int, err error) {
	t, te := se.t, se.te
	sp := cfg.Tracer.Start("pass", obs.I("pass", p))
	defer sp.End()
	res, err := tim.Analyze(t, cfg.InSlew)
	if err != nil {
		return 0, 0, err
	}
	capAt = res.TotalSwitchedCap()
	if cfg.EM != nil {
		// EM width floors against the *current* parasitics: early
		// passes see the conservative (heavier-wire) floors, later
		// passes relax them as downstream capacitance drops — the
		// assignment converges to the floors of its own final state.
		emFloors(res, t, te, *cfg.EM, emFloor)
	}
	// Skew budget: never worse than what we started the pass with,
	// and no worse than the bound when we are inside it.
	for pos, v := range span.node {
		arrivals[pos] = res.Arrival[v]
	}
	at.reset(arrivals)
	// Stay comfortably inside the bound: the stage-model arrivals the
	// segment tree tracks drift slightly from full STA (input-slew
	// cascades), so targeting 80% of the bound keeps the *real* final
	// skew under it without needing a heavy repair afterwards.
	skewBudget := 0.8 * cfg.MaxSkew
	if s := res.Skew(); s > skewBudget {
		skewBudget = s
	}

	for _, u := range se.drivers {
		se.reset(u)
		if len(se.nodes) == 0 {
			continue
		}
		inSlew := res.Slew[u]
		// cur lives in se.arr[0] and every candidate is evaluated into
		// se.arr[1]; an accepted candidate swaps the two.
		cur := se.eval(inSlew, se.arr[0])
		if cur.worstSlew > slewLimit {
			continue // no headroom; recovery sweep handles true violations
		}
		for _, v := range se.candidateOrder(cfg.Order, byCap) {
			curCost := te.Layer.CPerUm(te.Rule(t.Nodes[v].Rule))
			for _, ri := range byCap {
				if te.Layer.CPerUm(te.Rule(ri)) >= curCost {
					break // remaining candidates are not cheaper
				}
				if emFloor != nil && te.Rule(ri).WMult < emFloor[v] {
					continue // below the electromigration width floor
				}
				old := t.Nodes[v].Rule
				t.Nodes[v].Rule = ri
				cand := se.eval(inSlew, se.arr[1])
				// One edge change may shift a stage endpoint by at most
				// the skew bound, which keeps the post-pass repair cheap.
				if cand.worstSlew > slewLimit ||
					se.maxEndpointShift(cand, cur) > cfg.MaxSkew {
					t.Nodes[v].Rule = old
					continue
				}
				// Exact global skew check: shift each endpoint's sink
				// subtree by its arrival delta.
				se.applyShifts(at, span, cand, cur)
				if at.Skew() > skewBudget {
					se.applyShifts(at, span, cur, cand) // revert
					t.Nodes[v].Rule = old
					continue
				}
				cur = cand
				se.arr[0], se.arr[1] = se.arr[1], se.arr[0]
				tim.Touch(v) // accepted: next analysis sees one dirty edge
				changed++
				break // cheapest passing rule wins
			}
		}
	}
	sp.Set(obs.I("downgrades", changed))
	return capAt, changed, nil
}

// recoverViolations upgrades rule classes and, when drive-limited, the
// stage drivers of every stage violating the slew limit, iterating against
// fresh analyses of the shared timing engine until clean or stuck. Returns
// the upgrade count. enforceLimit is the per-stage target upgrades aim
// for; exitLimit is the global transition level that counts as "clean".
func recoverViolations(tim timer, se *stageEval, cfg Config, enforceLimit, exitLimit float64, byCap []int) int {
	t, lib := se.t, se.lib
	total := 0
	for round := 0; round < 5; round++ {
		res, err := tim.Analyze(t, cfg.InSlew)
		if err != nil {
			return total
		}
		if res.SlewViolations(exitLimit) == 0 {
			return total
		}
		fixed := 0
		for _, u := range se.drivers {
			se.reset(u)
			if len(se.nodes) == 0 {
				continue
			}
			inSlew := res.Slew[u]
			if se.eval(inSlew, se.arr[0]).worstSlew <= enforceLimit {
				continue
			}
			fixed += se.upgradeUntilMet(tim, inSlew, enforceLimit, byCap)
			// Rule upgrades alone cannot fix a drive-limited stage: the
			// transition is dominated by the driver's output slew at its
			// load. Upsize the driver until the stage meets or the library
			// tops out.
			for se.eval(inSlew, se.arr[0]).worstSlew > enforceLimit &&
				t.Nodes[u].BufIdx < len(lib.Buffers)-1 {
				t.Nodes[u].BufIdx++
				tim.Touch(u)
				fixed++
			}
		}
		total += fixed
		if fixed == 0 {
			return total
		}
	}
	return total
}

// applyShifts moves the arrival tree from state `from` to state `to`:
// every endpoint whose arrival moved shifts its sink span by the delta,
// all in one descent. reset walks the stage in Kids order, the order
// newSinkSpan numbers sinks in, and no endpoint lies below another, so
// the spans come out disjoint and ascending, as AddAll requires.
func (se *stageEval) applyShifts(at *arrTree, span *sinkSpan, to, from stageState) {
	batch := se.shifts[:0]
	for i, v := range se.nodes {
		if !se.endpoint[i] || span.lo[v] >= span.hi[v] {
			continue
		}
		if d := to.arr[i] - from.arr[i]; d != 0 {
			batch = append(batch, shift{span.lo[v], span.hi[v] - 1, d})
		}
	}
	at.AddAll(batch)
	se.shifts = batch
}

// nodeGain is an edge node and the cap its cheapest rule would save.
type nodeGain struct {
	v int
	g float64
}

// candidateOrder returns the stage's edge nodes in the configured order,
// in scratch the next call overwrites.
func (se *stageEval) candidateOrder(o Order, byCap []int) []int {
	out := append(se.order[:0], se.nodes...)
	switch o {
	case ByIndex:
		slices.Sort(out)
	case ByReverse: // node indices are distinct, so this is the one descending order
		slices.Sort(out)
		slices.Reverse(out)
	default: // BySensitivity: largest cap saving first
		cheapest := se.te.Layer.CPerUm(se.te.Rule(byCap[0]))
		gains := se.gains[:0]
		for _, v := range se.nodes {
			nd := &se.t.Nodes[v]
			gains = append(gains, nodeGain{v, nd.EdgeLen * (se.te.Layer.CPerUm(se.te.Rule(nd.Rule)) - cheapest)})
		}
		// On finite gains the comparator is negative exactly where the
		// less function gain(a) > gain(b) is true, and slices.SortFunc
		// runs the same pdqsort as sort.Slice, so ties end in the same
		// permutation.
		slices.SortFunc(gains, func(a, b nodeGain) int { return cmp.Compare(b.g, a.g) })
		for i, p := range gains {
			out[i] = p.v
		}
		se.gains = gains
	}
	se.order = out
	return out
}

// upgradeUntilMet strengthens stage edges (the change that improves the
// stage's worst transition most, first) until the stage meets the slew
// limit or no upgrade helps. Returns the number of upgrades applied.
// Accepted edits are reported to tim; trial/revert probes are not (they
// leave the tree unchanged).
func (se *stageEval) upgradeUntilMet(tim timer, inSlew, slewLimit float64, byCap []int) int {
	n := 0
	for guard := 0; guard < len(se.nodes)*len(byCap)+1; guard++ {
		base := se.eval(inSlew, se.arr[0])
		if base.worstSlew <= slewLimit {
			return n
		}
		bestV, bestRule := -1, -1
		bestSlew := base.worstSlew
		for _, v := range se.nodes {
			old := se.t.Nodes[v].Rule
			for _, ri := range byCap {
				if ri == old {
					continue
				}
				se.t.Nodes[v].Rule = ri
				cand := se.eval(inSlew, se.arr[1])
				if cand.worstSlew < bestSlew {
					bestSlew = cand.worstSlew
					bestV, bestRule = v, ri
				}
			}
			se.t.Nodes[v].Rule = old
		}
		if bestV < 0 {
			return n // nothing helps
		}
		se.t.Nodes[bestV].Rule = bestRule
		tim.Touch(bestV)
		n++
	}
	return n
}

// rulesByCap returns rule indices sorted by capacitance per micron,
// cheapest first.
func rulesByCap(te *tech.Tech) []int {
	out := make([]int, te.NumRules())
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(a, b int) bool {
		return te.Layer.CPerUm(te.Rule(out[a])) < te.Layer.CPerUm(te.Rule(out[b]))
	})
	return out
}
