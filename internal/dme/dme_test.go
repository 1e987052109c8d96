package dme

import (
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/rctree"
	"smartndr/internal/topo"
)

var testParams = Params{RPerUm: 3.0, CPerUm: 0.21e-15}

func randomSinks(n int, seed int64, spread float64) []ctree.Sink {
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread},
			Cap: (0.5 + rng.Float64()*3) * 1e-15,
		}
	}
	return sinks
}

// chainTopology merges the sinks in input order: sink 0 with sink 1, that
// pair with sink 2, and so on. It is the most unbalanced binary shape
// (depth n−1), so DME stays covered on trees no bipartition produces.
func chainTopology(sinks []ctree.Sink, src geom.Point) *ctree.Tree {
	t := ctree.NewTree(sinks, src)
	leaf := func(i int) int {
		return t.AddNode(ctree.Node{
			Parent: ctree.NoNode, Kids: [2]int{ctree.NoNode, ctree.NoNode},
			SinkIdx: i, Loc: sinks[i].Loc, BufIdx: ctree.NoBuf,
		})
	}
	acc := leaf(0)
	for i := 1; i < len(sinks); i++ {
		s := leaf(i)
		v := t.AddNode(ctree.Node{
			Parent: ctree.NoNode, Kids: [2]int{acc, s},
			SinkIdx: ctree.NoSink, BufIdx: ctree.NoBuf,
		})
		t.Nodes[acc].Parent, t.Nodes[s].Parent = v, v
		acc = v
	}
	t.Root = acc
	return t
}

// toRCTree converts an embedded clock tree into an RC tree with uniform
// per-micron parasitics, marking sink nodes as endpoints.
func toRCTree(t *ctree.Tree, p Params) (*rctree.Tree, map[int]rctree.NodeID) {
	rt := rctree.New(0)
	ids := map[int]rctree.NodeID{t.Root: rt.Root()}
	t.PreOrder(func(i int) {
		if i == t.Root {
			return
		}
		n := &t.Nodes[i]
		pin := 0.0
		if n.SinkIdx != ctree.NoSink {
			pin = t.Sinks[n.SinkIdx].Cap
		}
		id := rt.AddNode(ids[n.Parent], p.RPerUm*n.EdgeLen, p.CPerUm*n.EdgeLen, pin)
		ids[i] = id
		if n.SinkIdx != ctree.NoSink {
			rt.MarkEndpoint(id)
		}
	})
	return rt, ids
}

// sinkSkew returns (max−min) Elmore delay over sinks of the embedded tree.
func sinkSkew(t *ctree.Tree, p Params) (skew, maxDelay float64) {
	rt, _ := toRCTree(t, p)
	res := rt.Analyze()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ep := range rt.Endpoints() {
		d := res.Delay[ep]
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return hi - lo, hi
}

func TestTwoSinkZeroSkew(t *testing.T) {
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 1e-15},
		{Loc: geom.Point{X: 1000, Y: 0}, Cap: 1e-15},
	}
	tr, err := topo.Build(sinks, geom.Point{X: 500, Y: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	skew, delay := sinkSkew(tr, testParams)
	if delay <= 0 {
		t.Fatal("nonzero-delay tree expected")
	}
	if skew > delay*1e-9 {
		t.Errorf("skew = %g s on %g s delay; want ~0", skew, delay)
	}
	// Equal caps and symmetric geometry: the tap point is the midpoint.
	mid := tr.Nodes[tr.Root].Loc
	if math.Abs(mid.X-500) > 1e-6 {
		t.Errorf("symmetric merge should tap at x=500, got %v", mid)
	}
}

func TestAsymmetricCapsShiftTap(t *testing.T) {
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 20e-15}, // heavy sink
		{Loc: geom.Point{X: 1000, Y: 0}, Cap: 1e-15},
	}
	tr, _ := topo.Build(sinks, geom.Point{})
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	skew, delay := sinkSkew(tr, testParams)
	if skew > delay*1e-9+1e-18 {
		t.Errorf("skew = %g, want ~0", skew)
	}
	// The tap must sit closer to the heavy sink so it gets less wire.
	if tr.Nodes[tr.Root].Loc.X >= 500 {
		t.Errorf("tap at %v should favor the heavy sink at x=0", tr.Nodes[tr.Root].Loc)
	}
}

func TestZeroSkewAcrossSizesAndMethods(t *testing.T) {
	shapes := []struct {
		name  string
		build func([]ctree.Sink, geom.Point) *ctree.Tree
	}{
		{"bipartition", func(s []ctree.Sink, src geom.Point) *ctree.Tree {
			tr, err := topo.Build(s, src)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"chain", chainTopology},
	}
	for m, shape := range shapes {
		for _, n := range []int{2, 3, 7, 16, 63, 200} {
			sinks := randomSinks(n, int64(n)*7+int64(m), 3000)
			tr := shape.build(sinks, geom.Point{X: 1500, Y: 1500})
			if err := Embed(tr, testParams); err != nil {
				t.Fatalf("%s n=%d: %v", shape.name, n, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s n=%d: %v", shape.name, n, err)
			}
			if err := tr.CheckEmbedding(1e-6); err != nil {
				t.Fatalf("%s n=%d: %v", shape.name, n, err)
			}
			skew, delay := sinkSkew(tr, testParams)
			if skew > delay*1e-6+1e-18 {
				t.Errorf("%s n=%d: skew %g on delay %g", shape.name, n, skew, delay)
			}
		}
	}
}

func TestSnakingProducesLongEdges(t *testing.T) {
	// Snaking requires a subtree *delay* imbalance: merge a wide two-sink
	// subtree (large internal Elmore delay) with a single nearby sink. The
	// lone sink's edge must be snaked far beyond its Manhattan distance to
	// match the slow subtree.
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 1e-15},
		{Loc: geom.Point{X: 4000, Y: 0}, Cap: 1e-15},
		{Loc: geom.Point{X: 2000, Y: 10}, Cap: 1e-15}, // right next to the pair's tap
	}
	tr := ctree.NewTree(sinks, geom.Point{X: 2000, Y: 0})
	l0 := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{ctree.NoNode, ctree.NoNode}, SinkIdx: 0, BufIdx: ctree.NoBuf})
	l1 := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{ctree.NoNode, ctree.NoNode}, SinkIdx: 1, BufIdx: ctree.NoBuf})
	m := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{l0, l1}, SinkIdx: ctree.NoSink, BufIdx: ctree.NoBuf})
	tr.Nodes[l0].Parent = m
	tr.Nodes[l1].Parent = m
	l2 := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{ctree.NoNode, ctree.NoNode}, SinkIdx: 2, BufIdx: ctree.NoBuf})
	root := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{m, l2}, SinkIdx: ctree.NoSink, BufIdx: ctree.NoBuf})
	tr.Nodes[m].Parent = root
	tr.Nodes[l2].Parent = root
	tr.Root = root

	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	skew, delay := sinkSkew(tr, testParams)
	if skew > delay*1e-6 {
		t.Errorf("skew = %g on delay %g, want ~0 via snaking", skew, delay)
	}
	// The lone sink's electrical edge must dwarf its geometric distance.
	geoDist := tr.Nodes[l2].Loc.Dist(tr.Nodes[root].Loc)
	if tr.Nodes[l2].EdgeLen < geoDist+100 {
		t.Errorf("edge to lone sink: electrical %g vs geometric %g — expected heavy snaking",
			tr.Nodes[l2].EdgeLen, geoDist)
	}
}

func TestEmbedIdempotentWirelength(t *testing.T) {
	sinks := randomSinks(50, 99, 2000)
	tr, _ := topo.Build(sinks, geom.Point{X: 1000, Y: 1000})
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	w1 := tr.TotalWirelength()
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	if w2 := tr.TotalWirelength(); math.Abs(w1-w2) > 1e-6 {
		t.Errorf("re-embedding changed wirelength: %g → %g", w1, w2)
	}
}

func TestEmbedParamValidation(t *testing.T) {
	sinks := randomSinks(4, 1, 100)
	tr, _ := topo.Build(sinks, geom.Point{})
	if err := Embed(tr, Params{RPerUm: 0, CPerUm: 1e-15}); err == nil {
		t.Error("zero R must be rejected")
	}
	if err := Embed(tr, Params{RPerUm: 1, CPerUm: -1}); err == nil {
		t.Error("negative C must be rejected")
	}
	if err := Embed(tr, Params{RPerUm: math.NaN(), CPerUm: 1e-15}); err == nil {
		t.Error("NaN must be rejected")
	}
}

func TestEmbedNoRoot(t *testing.T) {
	tr := ctree.NewTree(randomSinks(2, 1, 10), geom.Point{})
	if err := Embed(tr, testParams); err == nil {
		t.Error("rootless tree must be rejected")
	}
}

func TestSnakeLength(t *testing.T) {
	p := Params{RPerUm: 3.0, CPerUm: 0.2e-15}
	capLoad := 10e-15
	for _, lag := range []float64{1e-12, 10e-12, 100e-12} {
		e := snakeLength(lag, capLoad, p)
		got := p.RPerUm * e * (p.CPerUm*e/2 + capLoad)
		if math.Abs(got-lag) > lag*1e-9 {
			t.Errorf("snakeLength(%g): delay %g", lag, got)
		}
	}
	if snakeLength(0, capLoad, p) != 0 || snakeLength(-1e-12, capLoad, p) != 0 {
		t.Error("non-positive lag needs no snaking")
	}
}

func TestWirelengthReasonable(t *testing.T) {
	// Zero-skew wirelength must be within a small factor of the sink
	// bounding-box half-perimeter scaled by sqrt(n) (Steiner-tree scaling).
	n := 128
	sinks := randomSinks(n, 5, 2000)
	tr, _ := topo.Build(sinks, geom.Point{X: 1000, Y: 1000})
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	w := tr.TotalWirelength()
	// Expected RSMT length ~ 0.7·sqrt(n·A); zero-skew trees cost a bit
	// more. Guard against both gross blowup and impossibly short results.
	scale := math.Sqrt(float64(n)*2000*2000) * 0.7
	if w < scale*0.5 || w > scale*4 {
		t.Errorf("wirelength %g out of plausible range around %g", w, scale)
	}
}

func TestSubtreeDelayMatchesAnalysis(t *testing.T) {
	sinks := randomSinks(32, 17, 1500)
	tr, _ := topo.Build(sinks, geom.Point{X: 700, Y: 700})
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	delay, totalCap, err := SubtreeDelay(tr, tr.Root, testParams)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := toRCTree(tr, testParams)
	res := rt.Analyze()
	var maxD float64
	for _, ep := range rt.Endpoints() {
		maxD = math.Max(maxD, res.Delay[ep])
	}
	if math.Abs(delay-maxD) > maxD*1e-9 {
		t.Errorf("SubtreeDelay %g vs analysis %g", delay, maxD)
	}
	if math.Abs(totalCap-res.TotalCap) > res.TotalCap*1e-9 {
		t.Errorf("SubtreeDelay cap %g vs analysis %g", totalCap, res.TotalCap)
	}
}

func TestClusteredSinksZeroSkew(t *testing.T) {
	// Two dense far-apart clusters exercise deep snaking and long top
	// edges.
	rng := rand.New(rand.NewSource(23))
	var sinks []ctree.Sink
	for i := 0; i < 20; i++ {
		sinks = append(sinks, ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Cap: 1e-15,
		})
	}
	for i := 0; i < 5; i++ {
		sinks = append(sinks, ctree.Sink{
			Loc: geom.Point{X: 4000 + rng.Float64()*50, Y: rng.Float64() * 50},
			Cap: 2e-15,
		})
	}
	tr := chainTopology(sinks, geom.Point{X: 2000, Y: 0})
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	skew, delay := sinkSkew(tr, testParams)
	if skew > delay*1e-6 {
		t.Errorf("clustered skew %g on delay %g", skew, delay)
	}
}

func TestCoincidentSinks(t *testing.T) {
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 100, Y: 100}, Cap: 1e-15},
		{Loc: geom.Point{X: 100, Y: 100}, Cap: 3e-15},
		{Loc: geom.Point{X: 100, Y: 100}, Cap: 2e-15},
	}
	tr, _ := topo.Build(sinks, geom.Point{})
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	skew, _ := sinkSkew(tr, testParams)
	if skew > 1e-18 {
		t.Errorf("coincident sinks skew = %g", skew)
	}
}

func BenchmarkEmbed1k(b *testing.B) {
	sinks := randomSinks(1024, 3, 3000)
	tr, _ := topo.Build(sinks, geom.Point{X: 1500, Y: 1500})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Embed(tr, testParams); err != nil {
			b.Fatal(err)
		}
	}
}

var linParams = Params{Model: Linear, KPerUm: 0.05e-12, CPerUm: 0.25e-15}

// linSinkSkew evaluates sink arrival under the linear model: k·pathLen +
// sink offset, which is what Linear-mode DME balances.
func linSinkSkew(t *ctree.Tree, p Params) (skew, maxDelay float64) {
	depthDelay := make([]float64, len(t.Nodes))
	lo, hi := math.Inf(1), math.Inf(-1)
	t.PreOrder(func(i int) {
		if pa := t.Nodes[i].Parent; pa != ctree.NoNode {
			depthDelay[i] = depthDelay[pa] + p.KPerUm*t.Nodes[i].EdgeLen
		}
		if si := t.Nodes[i].SinkIdx; si != ctree.NoSink {
			d := depthDelay[i] + t.Sinks[si].Delay
			lo = math.Min(lo, d)
			hi = math.Max(hi, d)
		}
	})
	return hi - lo, hi
}

func TestLinearModelZeroSkew(t *testing.T) {
	for _, n := range []int{2, 5, 16, 64} {
		sinks := randomSinks(n, int64(n)*3+1, 5000)
		tr, err := topo.Build(sinks, geom.Point{X: 2500, Y: 2500})
		if err != nil {
			t.Fatal(err)
		}
		if err := Embed(tr, linParams); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tr.CheckEmbedding(1e-6); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		skew, delay := linSinkSkew(tr, linParams)
		if skew > delay*1e-9+1e-18 {
			t.Errorf("n=%d: linear-model skew %g on delay %g", n, skew, delay)
		}
	}
}

func TestLinearModelBalancesOffsets(t *testing.T) {
	// Pseudo-sinks with different insertion delays below them: DME must
	// absorb the offsets so total arrival is equal.
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 5e-15, Delay: 120e-12},
		{Loc: geom.Point{X: 3000, Y: 0}, Cap: 5e-15, Delay: 80e-12},
		{Loc: geom.Point{X: 1500, Y: 2500}, Cap: 5e-15, Delay: 100e-12},
	}
	tr := chainTopology(sinks, geom.Point{X: 1500, Y: 1000})
	if err := Embed(tr, linParams); err != nil {
		t.Fatal(err)
	}
	skew, delay := linSinkSkew(tr, linParams)
	if skew > delay*1e-9+1e-18 {
		t.Errorf("offsets not balanced: skew %g", skew)
	}
	if delay < 120e-12 {
		t.Errorf("total delay %g cannot be below the largest offset", delay)
	}
}

func TestElmoreModelBalancesOffsets(t *testing.T) {
	sinks := []ctree.Sink{
		{Loc: geom.Point{X: 0, Y: 0}, Cap: 2e-15, Delay: 50e-12},
		{Loc: geom.Point{X: 800, Y: 0}, Cap: 2e-15, Delay: 0},
	}
	tr, err := topo.Build(sinks, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Embed(tr, testParams); err != nil {
		t.Fatal(err)
	}
	// Arrival = wire Elmore + offset; compute via rctree plus offsets.
	rt, ids := toRCTree(tr, testParams)
	res := rt.Analyze()
	var arr []float64
	for i := range tr.Nodes {
		if si := tr.Nodes[i].SinkIdx; si != ctree.NoSink {
			arr = append(arr, res.Delay[ids[i]]+tr.Sinks[si].Delay)
		}
	}
	if len(arr) != 2 {
		t.Fatal("want 2 sinks")
	}
	if math.Abs(arr[0]-arr[1]) > 1e-15 {
		t.Errorf("offset-aware skew = %g", math.Abs(arr[0]-arr[1]))
	}
}

func TestLinearSnakeLength(t *testing.T) {
	e := snakeLength(10e-12, 0, linParams)
	if !geomApprox(e, 10e-12/linParams.KPerUm, 1e-9) {
		t.Errorf("linear snake = %g", e)
	}
}

func geomApprox(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func TestParamsValidateModels(t *testing.T) {
	good := []Params{
		{Model: Elmore, RPerUm: 1, CPerUm: 1e-15},
		{Model: Linear, KPerUm: 1e-12, CPerUm: 1e-15},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good params %d rejected: %v", i, err)
		}
	}
	bad := []Params{
		{Model: Elmore, RPerUm: 0, CPerUm: 1e-15},
		{Model: Linear, KPerUm: 0, CPerUm: 1e-15},
		{Model: Linear, KPerUm: 1e-12, CPerUm: 0},
		{Model: Model(9), RPerUm: 1, CPerUm: 1e-15, KPerUm: 1e-12},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}
