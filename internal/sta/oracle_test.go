package sta_test

import (
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// refTiming is an independent reference for the full pass. It shares no
// code with sta or rctree: instead of accumulating downstream caps and
// propagating Elmore delays along a walk, it evaluates each stage's
// Elmore delay in path-resistance form,
//
//	T_i = Σ_k R(path_i ∩ path_k)·C_k,
//
// where k ranges over the stage's nodes, C_k is node k's π-lumped cap
// (its pin cap plus half of every wire segment incident to it) and
// R(path_i ∩ path_k) is the resistance the driver-to-i and driver-to-k
// paths share. Then, with the driver's NLDM delay and output slew at the
// stage load,
//
//	arrival_i = driver arrival + delay + T_i,
//	slew_i    = √(out² + (ln 9·T_i)²).
//
// It returns per-node arrival and slew, and per-node stage load (at
// buffered nodes).
func refTiming(tree *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, ov *sta.Overrides) (arr, slew, load []float64) {
	n := len(tree.Nodes)
	edgeR, edgeC := make([]float64, n), make([]float64, n)
	pin := make([]float64, n)
	for i := range tree.Nodes {
		nd := &tree.Nodes[i]
		if nd.Parent != ctree.NoNode {
			edgeR[i], edgeC[i] = te.WireR(nd.EdgeLen, nd.Rule), te.WireC(nd.EdgeLen, nd.Rule)
			if ov != nil {
				edgeR[i], edgeC[i] = ov.EdgeR[i], ov.EdgeC[i]
			}
		}
		switch {
		case nd.BufIdx != ctree.NoBuf:
			pin[i] = lib.Buffers[nd.BufIdx].InputCap
		case nd.Kids == [2]int{ctree.NoNode, ctree.NoNode}:
			pin[i] = tree.Sinks[nd.SinkIdx].Cap
		}
	}
	buffered := func(v int) bool { return tree.Nodes[v].BufIdx != ctree.NoBuf }
	// driverOf(v) is the nearest buffered proper ancestor of v.
	driverOf := func(v int) int {
		d := tree.Nodes[v].Parent
		for !buffered(d) {
			d = tree.Nodes[d].Parent
		}
		return d
	}
	members := make(map[int][]int)
	for v := range tree.Nodes {
		if v != tree.Root {
			d := driverOf(v)
			members[d] = append(members[d], v)
		}
	}
	// π-lumped cap of a stage node: its pin, the lower half of its own
	// edge, and — unless a buffer cuts the stage here — the upper halves
	// of its children's edges.
	lumped := make([]float64, n)
	for v := range tree.Nodes {
		lumped[v] = pin[v] + edgeC[v]/2
		if !buffered(v) {
			for _, k := range tree.Nodes[v].Kids {
				if k != ctree.NoNode {
					lumped[v] += edgeC[k] / 2
				}
			}
		}
	}
	arr, slew, load = make([]float64, n), make([]float64, n), make([]float64, n)
	onPath := make([]bool, n)
	ln9 := math.Log(9)
	arr[tree.Root], slew[tree.Root] = 0, inSlew
	queue := []int{tree.Root}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		stage := members[d]
		// The upper halves of the driver's own child edges sit on its
		// output pin: part of the load, no resistance to reach them.
		for _, k := range tree.Nodes[d].Kids {
			if k != ctree.NoNode {
				load[d] += edgeC[k] / 2
			}
		}
		for _, k := range stage {
			load[d] += lumped[k]
		}
		b := &lib.Buffers[tree.Nodes[d].BufIdx]
		delay := b.DelayAt(slew[d], load[d])
		if ov != nil {
			delay *= ov.BufScale[d]
		}
		outArr, outSlew := arr[d]+delay, b.OutSlewAt(slew[d], load[d])
		for _, i := range stage {
			for e := i; e != d; e = tree.Nodes[e].Parent {
				onPath[e] = true
			}
			elmore := 0.0
			for _, k := range stage {
				shared := 0.0
				for e := k; e != d; e = tree.Nodes[e].Parent {
					if onPath[e] {
						shared += edgeR[e]
					}
				}
				elmore += shared * lumped[k]
			}
			for e := i; e != d; e = tree.Nodes[e].Parent {
				onPath[e] = false
			}
			arr[i] = outArr + elmore
			slew[i] = math.Sqrt(outSlew*outSlew + ln9*elmore*ln9*elmore)
			if buffered(i) {
				queue = append(queue, i)
			}
		}
	}
	return arr, slew, load
}

// TestFullMatchesPathResistanceOracle compares the full pass — the
// one-shot sta.Analyze and Full on one reused engine — with refTiming on
// seeded trees of 4–43 sinks with random rules and buffer sizes, half of
// them under random per-edge R/C and per-buffer delay overrides. The dies
// alternate between small (wide stages, where the shared-path sums do the
// work) and large (long repeater chains, where stage hand-off does).
func TestFullMatchesPathResistanceOracle(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	const tol = 1e-12 // relative
	eng := sta.NewIncremental(te, lib)
	worst := 0.0
	check := func(tag string, v int, got, want float64) {
		t.Helper()
		rel := math.Abs(got - want)
		if want != 0 {
			rel /= math.Abs(want)
		}
		worst = math.Max(worst, rel)
		if rel > tol {
			t.Fatalf("%s node %d: %.17g, oracle %.17g (rel %.2g)", tag, v, got, want, rel)
		}
	}
	for i := 0; i < 40; i++ {
		tree := synthTreeOn(t, 4+i, int64(100+i), []float64{150, 300, 1500}[i%3], te, lib)
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		for v := range tree.Nodes {
			nd := &tree.Nodes[v]
			if nd.Parent != ctree.NoNode {
				nd.Rule = rng.Intn(te.NumRules())
			}
			if nd.BufIdx != ctree.NoBuf {
				nd.BufIdx = rng.Intn(len(lib.Buffers))
			}
		}
		inSlew := (20 + 40*rng.Float64()) * 1e-12
		var ov *sta.Overrides
		if i%2 == 1 {
			n := len(tree.Nodes)
			ov = &sta.Overrides{EdgeR: make([]float64, n), EdgeC: make([]float64, n), BufScale: make([]float64, n)}
			for v := range tree.Nodes {
				nd := &tree.Nodes[v]
				if nd.Parent != ctree.NoNode {
					ov.EdgeR[v] = te.WireR(nd.EdgeLen, nd.Rule) * (0.7 + 0.6*rng.Float64())
					ov.EdgeC[v] = te.WireC(nd.EdgeLen, nd.Rule) * (0.7 + 0.6*rng.Float64())
				}
				ov.BufScale[v] = 0.8 + 0.4*rng.Float64()
			}
		}
		arr, slew, load := refTiming(tree, te, lib, inSlew, ov)
		var results []*sta.Result
		if ov == nil {
			res, err := sta.Analyze(tree, te, lib, inSlew)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		res, err := eng.Full(tree, inSlew, ov, nil)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		for _, res := range results {
			for v := range tree.Nodes {
				check("arrival", v, res.Arrival[v], arr[v])
				check("slew", v, res.Slew[v], slew[v])
			}
			for _, d := range res.Drivers {
				check("stage load", d, res.StageCap[d], load[d])
			}
		}
	}
	t.Logf("worst relative deviation from the oracle: %.2g", worst)
}
