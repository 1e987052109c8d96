package rctree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// chain builds a root→a→b→... chain with identical segment RC and a sink
// cap at the last node.
func chain(segs int, r, c, sinkCap float64) (*Tree, NodeID) {
	t := New(0)
	cur := t.Root()
	for i := 0; i < segs; i++ {
		pin := 0.0
		if i == segs-1 {
			pin = sinkCap
		}
		cur = t.AddNode(cur, r, c, pin)
	}
	t.MarkEndpoint(cur)
	return t, cur
}

func TestSingleSegmentElmore(t *testing.T) {
	// One segment R, C(wire), CL at end: Elmore = R·(C/2 + CL).
	r, c, cl := 100.0, 50e-15, 20e-15
	tr, sink := chain(1, r, c, cl)
	res := tr.Analyze()
	want := r * (c/2 + cl)
	if !approx(res.Delay[sink], want, 1e-18) {
		t.Errorf("Elmore = %g, want %g", res.Delay[sink], want)
	}
	if !approx(res.TotalCap, c+cl, 1e-20) {
		t.Errorf("TotalCap = %g, want %g", res.TotalCap, c+cl)
	}
	if !approx(res.StepSlew[sink], Ln9*want, 1e-15) {
		t.Errorf("StepSlew = %g, want %g", res.StepSlew[sink], Ln9*want)
	}
}

func TestTwoSegmentElmore(t *testing.T) {
	// Two identical segments; hand-computed Elmore.
	r, c := 100.0, 50e-15
	cl := 10e-15
	tr, sink := chain(2, r, c, cl)
	res := tr.Analyze()
	// Lumped caps: node1: c/2+c/2 = c; node2: c/2+cl.
	// delay = r·(c + c/2 + cl) + r·(c/2 + cl)
	want := r*(c+c/2+cl) + r*(c/2+cl)
	if !approx(res.Delay[sink], want, 1e-18) {
		t.Errorf("Elmore = %g, want %g", res.Delay[sink], want)
	}
}

func TestChainSplitInvariance(t *testing.T) {
	// A uniform RC line split into k segments has Elmore
	// R·C·(1/2 + (k-1)/(2k))·... — the k→∞ limit is RC/2 + R·CL; more
	// importantly, refining the discretization must converge monotonically.
	R, C, CL := 1000.0, 200e-15, 30e-15
	prev := math.Inf(1)
	var last float64
	for _, k := range []int{1, 2, 4, 8, 32, 128} {
		tr, sink := chain(k, R/float64(k), C/float64(k), CL)
		res := tr.Analyze()
		d := res.Delay[sink]
		if d > prev+1e-18 {
			t.Errorf("delay should not increase with refinement: k=%d d=%g prev=%g", k, d, prev)
		}
		prev = d
		last = d
	}
	// Distributed-line limit.
	want := R*C/2 + R*CL
	if math.Abs(last-want)/want > 0.01 {
		t.Errorf("refined chain delay %g, want ≈%g", last, want)
	}
}

func TestBranchingDownCap(t *testing.T) {
	tr := New(0)
	mid := tr.AddNode(tr.Root(), 10, 5e-15, 0)
	a := tr.AddNode(mid, 10, 5e-15, 7e-15)
	b := tr.AddNode(mid, 10, 5e-15, 3e-15)
	tr.MarkEndpoint(a)
	tr.MarkEndpoint(b)
	res := tr.Analyze()
	if !approx(res.TotalCap, 15e-15+10e-15, 1e-20) {
		t.Errorf("TotalCap = %g", res.TotalCap)
	}
	// DownCap includes mid's feeding edge (5), both child edges (10), and
	// the sink pins (10).
	if !approx(res.DownCap[mid], 25e-15, 1e-20) {
		t.Errorf("DownCap(mid) = %g", res.DownCap[mid])
	}
	// Heavier sink is slower given equal wire.
	if res.Delay[a] <= res.Delay[b] {
		t.Error("heavier sink should have larger Elmore delay")
	}
}

func TestDelayMonotoneAlongPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New(0)
	nodes := []NodeID{tr.Root()}
	for i := 0; i < 200; i++ {
		p := nodes[rng.Intn(len(nodes))]
		n := tr.AddNode(p, rng.Float64()*100, rng.Float64()*10e-15, rng.Float64()*5e-15)
		nodes = append(nodes, n)
	}
	res := tr.Analyze()
	for _, n := range nodes[1:] {
		if res.Delay[n] < res.Delay[tr.Parent(n)] {
			t.Fatalf("delay decreased along path at node %d", n)
		}
	}
}

func TestIncreasingEdgeRIncreasesDownstreamDelay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(0)
		nodes := []NodeID{tr.Root()}
		for i := 0; i < 50; i++ {
			p := nodes[rng.Intn(len(nodes))]
			nodes = append(nodes, tr.AddNode(p, 1+rng.Float64()*100, rng.Float64()*10e-15, rng.Float64()*5e-15))
		}
		victim := nodes[1+rng.Intn(len(nodes)-1)]
		before := tr.Analyze()
		r, c := tr.EdgeRC(victim)
		tr.SetEdge(victim, r*2, c)
		after := tr.Analyze()
		// Delay at the victim must not decrease; nodes outside the victim's
		// subtree are unaffected by R changes.
		return after.Delay[victim] >= before.Delay[victim]-1e-21
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTotalCapEqualsSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(0)
		nodes := []NodeID{tr.Root()}
		sum := 0.0
		for i := 0; i < 80; i++ {
			p := nodes[rng.Intn(len(nodes))]
			ec := rng.Float64() * 10e-15
			pc := rng.Float64() * 5e-15
			nodes = append(nodes, tr.AddNode(p, rng.Float64()*100, ec, pc))
			sum += ec + pc
		}
		res := tr.Analyze()
		return approx(res.TotalCap, sum, 1e-18)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEndpoints(t *testing.T) {
	tr := New(0)
	a := tr.AddNode(tr.Root(), 1, 1e-15, 1e-15)
	b := tr.AddNode(tr.Root(), 1, 1e-15, 1e-15)
	tr.MarkEndpoint(b)
	tr.MarkEndpoint(a)
	eps := tr.Endpoints()
	if len(eps) != 2 {
		t.Fatalf("Endpoints = %v", eps)
	}
	if !tr.IsEndpoint(a) || !tr.IsEndpoint(b) || tr.IsEndpoint(tr.Root()) {
		t.Error("IsEndpoint flags wrong")
	}
}

func TestValidate(t *testing.T) {
	tr := New(0)
	tr.AddNode(tr.Root(), 1, 1e-15, 0)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	// Negative RC.
	bad := New(0)
	n := bad.AddNode(bad.Root(), 1, 1e-15, 0)
	bad.SetEdge(n, -1, 1e-15)
	if err := bad.Validate(); err == nil {
		t.Error("negative R should fail validation")
	}
	bad2 := New(0)
	n2 := bad2.AddNode(bad2.Root(), 1, 1e-15, 0)
	bad2.SetEdge(n2, math.NaN(), 1e-15)
	if err := bad2.Validate(); err == nil {
		t.Error("NaN R should fail validation")
	}
	bad3 := New(0)
	bad3.AddNode(bad3.Root(), 1, 1e-15, -1e-15)
	if err := bad3.Validate(); err == nil {
		t.Error("negative pin cap should fail validation")
	}
}

func TestSetEdgeRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetEdge on root should panic")
		}
	}()
	New(0).SetEdge(0, 1, 1)
}

func TestPinCapAccessors(t *testing.T) {
	tr := New(2e-15)
	if tr.PinCap(tr.Root()) != 2e-15 {
		t.Error("root pin cap lost")
	}
	n := tr.AddNode(tr.Root(), 1, 1e-15, 3e-15)
	tr.SetPinCap(n, 4e-15)
	if tr.PinCap(n) != 4e-15 {
		t.Error("SetPinCap lost")
	}
}

func TestChildrenIteration(t *testing.T) {
	tr := New(0)
	a := tr.AddNode(tr.Root(), 1, 0, 0)
	b := tr.AddNode(tr.Root(), 1, 0, 0)
	seen := map[NodeID]bool{}
	tr.Children(tr.Root(), func(c NodeID) { seen[c] = true })
	if !seen[a] || !seen[b] || len(seen) != 2 {
		t.Errorf("Children = %v", seen)
	}
}

func TestAnalyzeAfterMutation(t *testing.T) {
	// The cached topological order must survive SetEdge and new AddNode.
	tr := New(0)
	a := tr.AddNode(tr.Root(), 100, 10e-15, 0)
	tr.MarkEndpoint(a)
	r1 := tr.Analyze()
	tr.SetEdge(a, 200, 10e-15)
	r2 := tr.Analyze()
	if r2.Delay[a] <= r1.Delay[a] {
		t.Error("doubling R must increase delay")
	}
	b := tr.AddNode(a, 100, 10e-15, 5e-15)
	tr.MarkEndpoint(b)
	r3 := tr.Analyze()
	if len(r3.Delay) != 3 {
		t.Fatalf("analysis must cover new nodes, got %d", len(r3.Delay))
	}
	if r3.Delay[b] <= r3.Delay[a] {
		t.Error("descendant must be slower")
	}
}

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func BenchmarkAnalyze10k(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tr := New(0)
	nodes := []NodeID{tr.Root()}
	for i := 0; i < 10000; i++ {
		p := nodes[rng.Intn(len(nodes))]
		nodes = append(nodes, tr.AddNode(p, rng.Float64()*100, rng.Float64()*10e-15, rng.Float64()*2e-15))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Analyze()
	}
}
