package hier

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/workload"
)

func benchSinks(tb testing.TB, n int, die float64, seed int64) ([]ctree.Sink, workload.Benchmark) {
	tb.Helper()
	bm, err := workload.Generate(workload.Spec{
		Name: "hier", Dist: workload.Clustered, Sinks: n, DieX: die, DieY: die * 0.8,
		CapMin: 1e-15, CapMax: 4e-15, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return bm.Sinks, *bm
}

// fingerprint reduces a tree to a SHA-256 over every bit that defines it:
// topology, sink bindings, exact coordinates, edge lengths, rules, and
// buffer choices. Two trees with equal fingerprints are byte-identical
// for every downstream consumer (STA, power model, writers).
func fingerprint(t *ctree.Tree) [32]byte {
	h := sha256.New()
	var buf [8]byte
	w := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	w(uint64(t.Root))
	w(uint64(len(t.Nodes)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		w(uint64(n.Parent))
		w(uint64(n.Kids[0]))
		w(uint64(n.Kids[1]))
		w(uint64(n.SinkIdx))
		w(math.Float64bits(n.Loc.X))
		w(math.Float64bits(n.Loc.Y))
		w(math.Float64bits(n.EdgeLen))
		w(uint64(n.Rule))
		w(uint64(n.BufIdx))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func build(t *testing.T, sinks []ctree.Sink, bm workload.Benchmark, cfg Config) *Result {
	t.Helper()
	te := tech.Tech45()
	lib := cell.Default45()
	res, err := Build(context.Background(), sinks, bm.Src, te, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkerInvariance is the scale byte-identity contract: the stitched,
// balanced, smart-optimized tree must be bit-identical whether the
// regions were built serially or on eight workers.
func TestWorkerInvariance(t *testing.T) {
	sinks, bm := benchSinks(t, 6000, 8000, 77)
	mk := func(workers int) [32]byte {
		cfg := Config{MaxRegionSinks: 800, Smart: true, Workers: workers}
		res := build(t, sinks, bm, cfg)
		if res.NumRegions < 4 {
			t.Fatalf("expected a real partition, got %d regions", res.NumRegions)
		}
		return fingerprint(res.Tree)
	}
	serial := mk(1)
	if parallel := mk(8); parallel != serial {
		t.Fatal("Workers=8 tree differs from Workers=1 tree")
	}
	// And rebuild determinism at a fixed worker count.
	if again := mk(8); again != serial {
		t.Fatal("repeated Workers=8 build not deterministic")
	}
}

func TestBuildMeetsSkewBudget(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	for _, smart := range []bool{false, true} {
		sinks, bm := benchSinks(t, 4000, 7000, 5)
		cfg := Config{MaxRegionSinks: 600, Smart: smart, Workers: 2}
		res := build(t, sinks, bm, cfg)
		an, err := sta.Analyze(res.Tree, te, lib, 40e-12)
		if err != nil {
			t.Fatal(err)
		}
		if got := an.Skew(); got > te.MaxSkew {
			t.Errorf("smart=%v: global skew %.2f ps over budget %.2f ps",
				smart, got*1e12, te.MaxSkew*1e12)
		}
		if res.Skew != res.Balance.FinalSkew {
			t.Errorf("smart=%v: Skew %.3g != Balance.FinalSkew %.3g", smart, res.Skew, res.Balance.FinalSkew)
		}
		if smart {
			if res.Opt == nil {
				t.Fatal("smart build returned nil aggregated stats")
			}
			if res.Opt.Downgrades == 0 {
				t.Error("smart build accepted no downgrades — optimization evidently did not run")
			}
		}
	}
}

func TestBuildCoversEverySink(t *testing.T) {
	sinks, bm := benchSinks(t, 3000, 6000, 11)
	res := build(t, sinks, bm, Config{MaxRegionSinks: 500, Workers: 3})
	seen := make([]bool, len(sinks))
	for i := range res.Tree.Nodes {
		if si := res.Tree.Nodes[i].SinkIdx; si != ctree.NoSink {
			if seen[si] {
				t.Fatalf("sink %d bound twice", si)
			}
			seen[si] = true
		}
	}
	for si, ok := range seen {
		if !ok {
			t.Fatalf("sink %d missing from stitched tree", si)
		}
	}
	total := 0
	for _, n := range res.RegionSinks {
		total += n
	}
	if total != len(sinks) {
		t.Fatalf("region sink counts sum to %d, want %d", total, len(sinks))
	}
}

func TestBuildFlatShortCircuit(t *testing.T) {
	sinks, bm := benchSinks(t, 400, 3000, 3)
	res := build(t, sinks, bm, Config{MaxRegionSinks: 2048, Smart: true})
	if res.NumRegions != 1 {
		t.Fatalf("expected flat build, got %d regions", res.NumRegions)
	}
	if res.Opt == nil || res.Opt.Downgrades == 0 {
		t.Error("flat smart build reported no optimization")
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	sinks, bm := benchSinks(t, 10, 1000, 1)
	for _, cfg := range []Config{
		{SkewSplit: 1.5},
		{SkewSplit: -0.1},
		{MaxRegionSinks: -4},
		{InSlew: -1e-12},
		{SkewSplit: math.NaN(), Smart: true},
		{InSlew: math.NaN()},
	} {
		if _, err := Build(context.Background(), sinks, bm.Src, tech.Tech45(), cell.Default45(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := Build(context.Background(), nil, bm.Src, tech.Tech45(), cell.Default45(), Config{}); err == nil {
		t.Error("empty sink set accepted")
	}
}

func TestBuildHonorsContext(t *testing.T) {
	sinks, bm := benchSinks(t, 3000, 6000, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, sinks, bm.Src, tech.Tech45(), cell.Default45(), Config{MaxRegionSinks: 500}); err == nil {
		t.Error("cancelled context did not stop the build")
	}
}
