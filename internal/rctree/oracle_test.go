package rctree_test

import (
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/rctree"
)

// refElmore is an independent reference for Tree.Analyze. It shares no
// code with rctree: it reads only the test's own description of the tree
// (parent, feeding-edge R and C, and pin cap per node, the root at 0 with
// no edge) and evaluates each quantity from its definition instead of
// accumulating along a walk. The Elmore delay is in path-resistance form,
//
//	T_i = Σ_k R(path_i ∩ path_k)·C_k,
//
// where C_k is node k's π-lumped cap (its pin cap plus half of every wire
// segment incident to it) and R(path_i ∩ path_k) is the resistance the
// root-to-i and root-to-k paths share. The downstream cap of n is the sum
// over n's subtree of pin cap plus full feeding-edge cap.
func refElmore(parent []int, r, c, pin []float64) (delay, down []float64) {
	n := len(parent)
	lumped := make([]float64, n)
	for k := range lumped {
		lumped[k] = pin[k] + c[k]/2
		if k > 0 {
			lumped[parent[k]] += c[k] / 2
		}
	}
	delay, down = make([]float64, n), make([]float64, n)
	onPath := make([]bool, n)
	for i := range parent {
		for e := i; e > 0; e = parent[e] {
			onPath[e] = true
		}
		for k := range parent {
			shared := 0.0
			for e := k; e > 0; e = parent[e] {
				if onPath[e] {
					shared += r[e]
				}
			}
			delay[i] += shared * lumped[k]
		}
		for e := i; e > 0; e = parent[e] {
			onPath[e] = false
		}
	}
	// Node k lies in the subtree of every node on its path to the root.
	for k := range parent {
		for e := k; ; e = parent[e] {
			down[e] += pin[k] + c[k]
			if e == 0 {
				break
			}
		}
	}
	return delay, down
}

// TestAnalyzeMatchesPathResistanceOracle compares Tree.Analyze with
// refElmore on 60 seeded trees of 2–120 nodes in three shapes: random
// recursive trees (bushy), mostly-serial chains (deep shared paths) and
// heap-ordered binary trees, with zero-resistance and zero-cap edges and
// pin caps on internal nodes as well as leaves. Every other tree is then
// edited through SetEdge and SetPinCap and compared again, so an analysis
// that kept stale state would show.
func TestAnalyzeMatchesPathResistanceOracle(t *testing.T) {
	const tol = 1e-12 // relative
	ln9 := math.Log(9)
	worst := 0.0
	check := func(tag string, tree, v int, got, want float64) {
		t.Helper()
		rel := math.Abs(got - want)
		if want != 0 {
			rel /= math.Abs(want)
		}
		worst = math.Max(worst, rel)
		if rel > tol {
			t.Fatalf("tree %d %s node %d: %.17g, oracle %.17g (rel %.2g)", tree, tag, v, got, want, rel)
		}
	}
	compare := func(i int, tr *rctree.Tree, parent []int, r, c, pin []float64) {
		t.Helper()
		delay, down := refElmore(parent, r, c, pin)
		res := tr.Analyze()
		for v := range parent {
			check("delay", i, v, res.Delay[v], delay[v])
			check("step slew", i, v, res.StepSlew[v], ln9*delay[v])
			check("downstream cap", i, v, res.DownCap[v], down[v])
		}
		check("total cap", i, 0, res.TotalCap, down[0])
	}
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		n := 2 + rng.Intn(119)
		parent := make([]int, n)
		r, c, pin := make([]float64, n), make([]float64, n), make([]float64, n)
		pin[0] = 1e-15 * rng.Float64()
		edge := func() (float64, float64) {
			er, ec := 200*rng.Float64(), 50e-15*rng.Float64()
			switch rng.Intn(10) {
			case 0:
				er = 0
			case 1:
				ec = 0
			}
			return er, ec
		}
		tr := rctree.New(pin[0])
		for v := 1; v < n; v++ {
			switch i % 3 {
			case 0:
				parent[v] = rng.Intn(v)
			case 1:
				parent[v] = v - 1
				if rng.Intn(5) == 0 {
					parent[v] = rng.Intn(v)
				}
			default:
				parent[v] = (v - 1) / 2
			}
			r[v], c[v] = edge()
			if rng.Intn(4) == 0 {
				pin[v] = 5e-15 * rng.Float64()
			}
			if id := tr.AddNode(rctree.NodeID(parent[v]), r[v], c[v], pin[v]); int(id) != v {
				t.Fatalf("tree %d: AddNode returned %d, want %d", i, id, v)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		compare(i, tr, parent, r, c, pin)
		if i%2 == 1 {
			for e := 0; e < n/2; e++ {
				v := 1 + rng.Intn(n-1)
				if rng.Intn(2) == 0 {
					r[v], c[v] = edge()
					tr.SetEdge(rctree.NodeID(v), r[v], c[v])
				} else {
					pin[v] = 5e-15 * rng.Float64()
					tr.SetPinCap(rctree.NodeID(v), pin[v])
				}
			}
			compare(i, tr, parent, r, c, pin)
		}
	}
	t.Logf("worst relative deviation from the oracle: %.2g", worst)
}
