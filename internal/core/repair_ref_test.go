package core

import (
	"fmt"
	"math"
	"testing"

	"smartndr/internal/buffering"
	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/rctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/topo"
)

// repairToTargetsRef is the repair loop as it was before it kept the
// accepted state's plan: after a rollback it times the restored tree
// again and re-derives the plan with four tree walks, and it times the
// final state once more after the loop. It allocates its arrays per call.
// The only additions are the two Rollbacks counts, so that RepairStats
// compare whole.
func repairToTargetsRef(tim timer, t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, targets []float64, tol float64, maxIters int) (RepairStats, error) {
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
			st.Rollbacks++
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
		st.Rollbacks++
	}
	st.Converged = st.FinalSkew <= targetSkew
	return st, nil
}

// stitchedTree builds a hierarchical tree the way hier.Build does before
// its global balance: median-partitioned regions, each a blanket build
// (optimized to half the skew budget when smart is set), stitched under
// an uncalibrated top tree that balances the regions' measured insertion
// delays. hier imports this package, so its tests cannot call hier.Build.
func stitchedTree(t testing.TB, n, maxRegion int, seed int64, smart bool, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	t.Helper()
	spread := math.Sqrt(float64(n)) * 60
	sinks := randomSinks(n, seed, spread)
	src := geom.Point{X: spread / 2, Y: spread / 2}
	regions := topo.Partition(sinks, maxRegion)
	trees := make([]*ctree.Tree, len(regions))
	pseudo := make([]ctree.Sink, len(regions))
	for i, members := range regions {
		sub := make([]ctree.Sink, len(members))
		for j, m := range members {
			sub[j] = sinks[m]
		}
		built, err := cts.Build(sub, src, te, lib, cts.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rt := built.Tree
		rt.SetAllRules(te.BlanketRule)
		if smart {
			if _, err := Optimize(rt, te, lib, Config{MaxSkew: te.MaxSkew / 2}); err != nil {
				t.Fatal(err)
			}
		}
		an, err := sta.Analyze(rt, te, lib, sta.DefaultInSlew)
		if err != nil {
			t.Fatal(err)
		}
		root := rt.Nodes[rt.Root]
		trees[i] = rt
		pseudo[i] = ctree.Sink{Name: "region", Loc: root.Loc, Cap: lib.Buffers[root.BufIdx].InputCap, Delay: an.MaxSinkArrival()}
	}
	top, err := cts.Build(pseudo, src, te, lib, cts.Options{NoCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	top.Tree.SetAllRules(te.BlanketRule)
	return cts.Stitch(sinks, src, top.Tree, trees, regions, make([]int, len(regions)))
}

// staggeredTree is TestRepairSkewAllocBound's workload: a 400-sink
// blanket tree with leaf edges lengthened by 0–72 µm.
func staggeredTree(t testing.TB, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	tr := buildBlanket(t, 400, 9, 3500, te, lib)
	for i := range tr.Nodes {
		if tr.IsLeaf(i) {
			tr.Nodes[i].EdgeLen += float64(i%7) * 12
		}
	}
	return tr
}

// bankTargets is TestRepairToTargetsRealizesSchedule's useful-skew
// schedule: sinks whose nearest buffered ancestor lies right of x aim
// 12 ps later.
func bankTargets(tr *ctree.Tree, x float64) []float64 {
	targets := make([]float64, len(tr.Sinks))
	for i := range tr.Nodes {
		si := tr.Nodes[i].SinkIdx
		if si == ctree.NoSink {
			continue
		}
		v := i
		for v != ctree.NoNode && tr.Nodes[v].BufIdx == ctree.NoBuf {
			v = tr.Nodes[v].Parent
		}
		if v != ctree.NoNode && tr.Nodes[v].Loc.X > x {
			targets[si] = 12e-12
		}
	}
	return targets
}

// repairCase is one seeded repair workload.
type repairCase struct {
	name      string
	tree      *ctree.Tree
	targets   []float64 // nil: plain skew
	tol       float64
	iters     int
	wantRolls bool // the first call is known to roll back
}

func repairCases(t *testing.T, te *tech.Tech, lib *cell.Library) []repairCase {
	t.Helper()
	bank := buildBlanket(t, 100, 211, 1500, te, lib)
	stag := staggeredTree(t, te, lib)
	sti := stitchedTree(t, 3000, 400, 1, false, te, lib)
	return []repairCase{
		{name: "staggered-400", tree: stag, tol: te.MaxSkew, iters: 30, wantRolls: true},
		{name: "blanket-250", tree: buildBlanket(t, 250, 250, 2500, te, lib), tol: te.MaxSkew, iters: 30},
		{name: "stitched-smart", tree: stitchedTree(t, 3000, 400, 2, true, te, lib), tol: te.MaxSkew, iters: 40, wantRolls: true},
		{name: "stitched-blanket", tree: stitchedTree(t, 5000, 300, 3, false, te, lib), tol: te.MaxSkew, iters: 40, wantRolls: true},
		{name: "useful-bank", tree: bank, targets: bankTargets(bank, 750), tol: 8e-12, iters: 40},
		{name: "useful-stitched", tree: sti, targets: bankTargets(sti, 1600), tol: 8e-12, iters: 40, wantRolls: true},
		{name: "useful-staggered", tree: stag, targets: bankTargets(stag, 1750), tol: 8e-12, iters: 40, wantRolls: true},
	}
}

// sameResult asserts two analyses agree bit for bit on every arrival and
// transition.
func sameResult(t *testing.T, tag string, a, b *sta.Result) {
	t.Helper()
	for i := range a.Arrival {
		if math.Float64bits(a.Arrival[i]) != math.Float64bits(b.Arrival[i]) || math.Float64bits(a.Slew[i]) != math.Float64bits(b.Slew[i]) {
			t.Fatalf("%s: node %d timing diverges: arrival %.17g/%.17g slew %.17g/%.17g",
				tag, i, a.Arrival[i], b.Arrival[i], a.Slew[i], b.Slew[i])
		}
	}
}

// TestRepairMatchesReference holds the repair loop to the reference loop
// it replaced: the same edge lengths and the same RepairStats, bit for
// bit, on seeded trees that roll back, under the incremental engine and
// the full-pass one. Each case runs at its budget and at budgets of 1–3
// iterations (so the loop also ends on an untimed last iteration), twice
// in a row on one engine and one scratch at a halved tolerance, the way
// Optimize's cleanup rounds call it: the second call starts from the
// edits the first left pending. Both engines must then time the final
// trees identically.
func TestRepairMatchesReference(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	rolls := 0
	for _, c := range repairCases(t, te, lib) {
		for _, full := range []bool{false, true} {
			engine := func() timer {
				if full {
					return newFullTimer(te, lib)
				}
				return sta.NewIncremental(te, lib)
			}
			for _, iters := range []int{c.iters, 1, 2, 3} {
				tag := fmt.Sprintf("%s full=%v iters=%d", c.name, full, iters)
				ref, got := c.tree.Clone(), c.tree.Clone()
				refTim, gotTim := engine(), engine()
				sc := newRepairScratch(len(got.Nodes))
				for round, tol := range []float64{c.tol, c.tol / 2} {
					want, err := repairToTargetsRef(refTim, ref, te, lib, sta.DefaultInSlew, c.targets, tol, iters)
					if err != nil {
						t.Fatal(err)
					}
					have, err := repairToTargets(gotTim, &sc, got, te, lib, sta.DefaultInSlew, c.targets, tol, iters)
					if err != nil {
						t.Fatal(err)
					}
					if have != want {
						t.Fatalf("%s round %d: stats diverge:\n got %+v\nwant %+v", tag, round, have, want)
					}
					sameTree(t, fmt.Sprintf("%s round %d", tag, round), got, ref)
					if round == 0 && iters == c.iters && c.wantRolls && have.Rollbacks == 0 {
						t.Errorf("%s: no rollback; the case no longer covers the rollback path", tag)
					}
					rolls += have.Rollbacks
				}
				a, err := refTim.Analyze(ref, sta.DefaultInSlew)
				if err != nil {
					t.Fatal(err)
				}
				b, err := gotTim.Analyze(got, sta.DefaultInSlew)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, tag, a, b)
			}
		}
	}
	if rolls == 0 {
		t.Fatal("no case rolled back")
	}
}

// countingTimer counts the analyses a repair run asks for.
type countingTimer struct {
	timer
	analyses int
}

func (c *countingTimer) Analyze(t *ctree.Tree, inSlew float64) (*sta.Result, error) {
	c.analyses++
	return c.timer.Analyze(t, inSlew)
}

// TestRepairTimesEachStateOnce: the loop times each state it produces
// once. A rollback restores the accepted state, which was timed already,
// so a run asks for at most one analysis per applied plan plus one (the
// first state, or the state the last plan produced).
func TestRepairTimesEachStateOnce(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	rolls := 0
	for _, c := range repairCases(t, te, lib) {
		for _, iters := range []int{c.iters, 2} {
			tim := &countingTimer{timer: sta.NewIncremental(te, lib)}
			sc := newRepairScratch(len(c.tree.Nodes))
			st, err := repairToTargets(tim, &sc, c.tree.Clone(), te, lib, sta.DefaultInSlew, c.targets, c.tol, iters)
			if err != nil {
				t.Fatal(err)
			}
			if tim.analyses > st.Iters+1 {
				t.Errorf("%s iters=%d: %d analyses for %d applied plans (%d rollbacks)", c.name, iters, tim.analyses, st.Iters, st.Rollbacks)
			}
			rolls += st.Rollbacks
		}
	}
	if rolls == 0 {
		t.Fatal("no case rolled back")
	}
}
