package smartndr

// Pipeline micro-benchmarks: the pieces a downstream user pays for. The
// per-experiment benchmarks are in experiments_bench_test.go.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"smartndr/internal/core"
	"smartndr/internal/workload"
)

func benchSinks(b *testing.B, n int) []Sink {
	b.Helper()
	bm, err := GenerateBenchmark(BenchSpec{
		Name: "bench", Dist: workload.Uniform, Sinks: n,
		DieX: 4000, DieY: 3200, CapMin: 1e-15, CapMax: 4e-15, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return bm.Sinks
}

func BenchmarkBuild2k(b *testing.B) {
	sinks := benchSinks(b, 2000)
	flow := NewFlow(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Build(sinks, Point{X: 2000, Y: 1600}); err != nil {
			b.Fatal(err)
		}
	}
}

// cnsDesigns generates cns01–cns05 at their own seeds, the shapes
// perfbench's cold-flow workload rotates through.
func cnsDesigns(b *testing.B) []*workload.Benchmark {
	b.Helper()
	var designs []*workload.Benchmark
	for _, spec := range Suite()[:5] {
		bm, err := GenerateBenchmark(spec)
		if err != nil {
			b.Fatal(err)
		}
		designs = append(designs, bm)
	}
	return designs
}

// BenchmarkBuildCNS is construction on the cold-flow mix: one op runs
// Flow.Build on each of cns01–cns05.
func BenchmarkBuildCNS(b *testing.B) {
	designs := cnsDesigns(b)
	flow := NewFlow(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range designs {
			if _, err := flow.Build(bm.Sinks, bm.Src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkColdFlowCNS is the in-process mirror of perfbench's cold-flow
// workload: one op runs Flow.Build and then Flow.Apply of the smart
// scheme on each of cns01–cns05.
func BenchmarkColdFlowCNS(b *testing.B) {
	designs := cnsDesigns(b)
	flow := NewFlow(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range designs {
			built, err := flow.Build(bm.Sinks, bm.Src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := flow.Apply(built, SchemeSmart); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// openSessions opens a smart-scheme session on each of the first n suite
// designs (cns01 first).
func openSessions(b *testing.B, n int) ([]*FlowSession, []*workload.Benchmark) {
	b.Helper()
	flow := NewFlow(nil)
	var sessions []*FlowSession
	var designs []*workload.Benchmark
	for _, spec := range Suite()[:n] {
		bm, err := GenerateBenchmark(spec)
		if err != nil {
			b.Fatal(err)
		}
		s, err := flow.OpenSession(context.Background(), spec, SchemeSmart)
		if err != nil {
			b.Fatal(err)
		}
		sessions, designs = append(sessions, s), append(designs, bm)
	}
	return sessions, designs
}

// BenchmarkSessionInSlew is one design-session delta that moves the root
// input slew: ApplyState on cns03, alternating between 35 and 52 ps.
func BenchmarkSessionInSlew(b *testing.B) {
	sessions, _ := openSessions(b, 3)
	s := sessions[2]
	states := [2][]Edit{{{Op: core.OpInSlew, InSlewPS: 35}}, {{Op: core.OpInSlew, InSlewPS: 52}}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ApplyState(ctx, states[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionDeltaMix is the in-process mirror of perfbench's
// interactive deltas: sessions on cns01–04, each delta one edit drawn
// uniformly from the five ops on a random session, and every 8th delta
// on a session a rollback to its pristine state. One op is one delta,
// the state fold included. full/delta is the share of deltas the
// sessions' engines answered with a full pass.
func BenchmarkSessionDeltaMix(b *testing.B) {
	sessions, designs := openSessions(b, 4)
	rules := NewFlow(nil).Config().Tech.NumRules()
	rng := rand.New(rand.NewSource(1))
	type delta struct {
		s    int
		live []Edit // the session's edits since its last rollback
	}
	mix := make([]delta, 4096)
	var live [4][]Edit
	var count [4]int
	for i := range mix {
		k := rng.Intn(len(sessions))
		if count[k]++; count[k]%8 == 0 {
			live[k] = nil
		} else {
			sinks, spec := designs[k].Sinks, designs[k].Spec
			var e Edit
			switch j := rng.Intn(len(sinks)); rng.Intn(5) {
			case 0: // a local move of up to 50 µm per axis
				p := sinks[j].Loc
				e = Edit{Op: core.OpMoveSink, Sink: j,
					X: max(0, min(spec.DieX, p.X+(rng.Float64()-0.5)*100)),
					Y: max(0, min(spec.DieY, p.Y+(rng.Float64()-0.5)*100))}
			case 1:
				e = Edit{Op: core.OpSinkCap, Sink: j, Cap: (1 + 3*rng.Float64()) * 1e-15}
			case 2:
				e = Edit{Op: core.OpSinkRule, Sink: j, Rule: rng.Intn(rules)}
			case 3:
				e = Edit{Op: core.OpNodeRule, Node: rng.Intn(sessions[k].Nodes()), Rule: rng.Intn(rules)}
			default:
				e = Edit{Op: core.OpInSlew, InSlewPS: 30 + 30*rng.Float64()}
			}
			live[k] = append(slices.Clone(live[k]), e)
		}
		mix[i] = delta{k, live[k]}
	}
	full := func() (n int) {
		for _, s := range sessions {
			n += s.EngineStats().FullRuns
		}
		return n
	}
	ctx := context.Background()
	full0 := full()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := mix[i%len(mix)]
		if _, err := sessions[d.s].ApplyState(ctx, core.CanonicalEdits(d.live)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(full()-full0)/float64(b.N), "full/delta")
}

func BenchmarkSmartApply2k(b *testing.B) {
	sinks := benchSinks(b, 2000)
	flow := NewFlow(nil)
	built, err := flow.Build(sinks, Point{X: 2000, Y: 1600})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Apply(built, SchemeSmart); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiming2k(b *testing.B) {
	sinks := benchSinks(b, 2000)
	flow := NewFlow(nil)
	built, err := flow.Build(sinks, Point{X: 2000, Y: 1600})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Timing(built.Tree); err != nil {
			b.Fatal(err)
		}
	}
}

// Tracer-overhead benchmarks: BenchmarkFlowSmart is the untraced
// baseline, the NopTracer variant proves a disabled tracer is free
// (NewTracer(nil) is a nil tracer — every instrumentation point is one
// nil check), and the Traced variant prices a live in-memory sink.

func benchFlowSmart(b *testing.B, flow *Flow) {
	b.Helper()
	sinks := benchSinks(b, 1000)
	built, err := flow.Build(sinks, Point{X: 2000, Y: 1600})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Apply(built, SchemeSmart); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowSmart(b *testing.B) {
	benchFlowSmart(b, NewFlow(nil))
}

func BenchmarkFlowSmartNopTracer(b *testing.B) {
	benchFlowSmart(b, NewFlow(&FlowConfig{Tracer: NewTracer(nil)}))
}

func BenchmarkFlowSmartTraced(b *testing.B) {
	col := NewTraceCollector()
	benchFlowSmart(b, NewFlow(&FlowConfig{Tracer: NewTracer(col)}))
}

// BenchmarkFlowSmartHistogram prices full telemetry aggregation: every
// span lands in a per-path latency histogram (the smartndrd /metricsz
// path) instead of an unbounded event buffer.
func BenchmarkFlowSmartHistogram(b *testing.B) {
	benchFlowSmart(b, NewFlow(&FlowConfig{Tracer: NewTracer(NewSpanObserver(nil))}))
}

// Monte Carlo benchmarks: trial-scaling across worker counts plus the
// allocation profile (run with -benchmem). Results are identical at any
// worker count — the determinism test proves it — so these measure pure
// throughput. BenchmarkMonteCarlo100 (the PR-1 name) is kept as the
// 1-worker anchor for history.

func benchMonteCarlo(b *testing.B, workers int) {
	b.Helper()
	sinks := benchSinks(b, 500)
	flow := NewFlow(nil)
	built, err := flow.Build(sinks, Point{X: 2000, Y: 1600})
	if err != nil {
		b.Fatal(err)
	}
	p := VariationParams{
		WidthSigma: 0.004, BufSigma: 0.03, SpatialFrac: 0.6,
		Samples: 100, Seed: 3, Workers: workers,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.MonteCarlo(built.Tree, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarlo100(b *testing.B)      { benchMonteCarlo(b, 1) }
func BenchmarkMonteCarlo1Workers(b *testing.B) { benchMonteCarlo(b, 1) }
func BenchmarkMonteCarlo4Workers(b *testing.B) { benchMonteCarlo(b, 4) }
func BenchmarkMonteCarlo8Workers(b *testing.B) { benchMonteCarlo(b, 8) }
func BenchmarkMonteCarloNWorkers(b *testing.B) { benchMonteCarlo(b, runtime.GOMAXPROCS(0)) }

// Scale benchmarks drive the hierarchical flow end to end — sharded
// benchmark generation, geometric partitioning, per-region DME +
// smart-NDR builds on the worker pool, top-tree embed, stitch, and the
// final global skew balance. Both skip under -short so bench-smoke
// stays seconds-scale; `make bench-scale` (CI) runs the 100K point
// once, and BENCH_PR7.json commits it. The million-sink probe
// additionally gates behind SMARTNDR_BENCH_1M=1 — it is the headroom
// proof, not a routine datapoint.

func benchFlowSmartScale(b *testing.B, n int) {
	b.Helper()
	if testing.Short() {
		b.Skipf("%d-sink scale benchmark skipped in -short mode", n)
	}
	spec := workload.Scale(fmt.Sprintf("scale%dk", n/1000), n, 7)
	flow := NewFlow(&FlowConfig{Hier: HierConfig{MaxRegionSinks: 2048}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, _, err := flow.RunSpecEdits(context.Background(), spec, SchemeSmart, nil)
		if err != nil {
			b.Fatal(err)
		}
		if built.NumClusters < 2 {
			b.Fatalf("scale run built %d regions — hierarchical path not taken", built.NumClusters)
		}
	}
}

func BenchmarkFlowSmart100K(b *testing.B) { benchFlowSmartScale(b, 100_000) }

func BenchmarkFlowSmart1M(b *testing.B) {
	if os.Getenv("SMARTNDR_BENCH_1M") == "" {
		b.Skip("set SMARTNDR_BENCH_1M=1 to run the million-sink benchmark")
	}
	benchFlowSmartScale(b, 1_000_000)
}
