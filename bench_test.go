package smartndr

// Pipeline micro-benchmarks: the pieces a downstream user pays for. The
// per-experiment benchmarks are in experiments_bench_test.go.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

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
