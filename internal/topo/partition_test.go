package topo

import (
	"math/rand"
	"reflect"
	"testing"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/workload"
)

func checkPartition(t *testing.T, sinks []ctree.Sink, regions [][]int, maxSinks int) {
	t.Helper()
	seen := make([]bool, len(sinks))
	for ri, r := range regions {
		if len(r) == 0 {
			t.Fatalf("region %d empty", ri)
		}
		if maxSinks > 0 && len(r) > maxSinks {
			t.Fatalf("region %d has %d sinks, bound %d", ri, len(r), maxSinks)
		}
		for k, si := range r {
			if si < 0 || si >= len(sinks) {
				t.Fatalf("region %d: sink index %d out of range", ri, si)
			}
			if seen[si] {
				t.Fatalf("sink %d assigned twice", si)
			}
			seen[si] = true
			if k > 0 && r[k-1] >= si {
				t.Fatalf("region %d not sorted ascending at %d", ri, k)
			}
		}
	}
	for si, ok := range seen {
		if !ok {
			t.Fatalf("sink %d not covered", si)
		}
	}
}

func TestPartitionCoversAndBounds(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1023, 4096} {
		for _, cap := range []int{1, 3, 64, 500} {
			sinks := randomSinks(n, int64(n*31+cap))
			regions := Partition(sinks, cap)
			checkPartition(t, sinks, regions, cap)
		}
	}
}

func TestPartitionSingleRegion(t *testing.T) {
	sinks := randomSinks(50, 7)
	for _, cap := range []int{0, -1, 50, 100} {
		regions := Partition(sinks, cap)
		if len(regions) != 1 || len(regions[0]) != 50 {
			t.Fatalf("cap=%d: want single full region, got %d regions", cap, len(regions))
		}
	}
	if got := Partition(nil, 8); got != nil {
		t.Fatalf("empty sinks: want nil, got %v", got)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	sinks := randomSinks(2000, 42)
	a := Partition(sinks, 128)
	b := Partition(sinks, 128)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Partition not deterministic across calls")
	}
}

// Duplicate coordinates must not break coverage or determinism: the sort
// tie-breaks on index, so identical points still order stably.
func TestPartitionDuplicatePoints(t *testing.T) {
	sinks := make([]ctree.Sink, 64)
	for i := range sinks {
		sinks[i] = ctree.Sink{Name: "d", Loc: geom.Point{X: float64(i % 4), Y: float64(i % 2)}, Cap: 1e-15}
	}
	regions := Partition(sinks, 8)
	checkPartition(t, sinks, regions, 8)
	again := Partition(sinks, 8)
	if !reflect.DeepEqual(regions, again) {
		t.Fatal("duplicate-point partition not deterministic")
	}
}

// A tight Gaussian clump must still respect the bound and cover every
// sink.
func TestPartitionClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sinks := make([]ctree.Sink, 500)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Name: "c",
			Loc:  geom.Point{X: 500 + rng.NormFloat64(), Y: 400 + rng.NormFloat64()},
			Cap:  1e-15,
		}
	}
	regions := Partition(sinks, 50)
	checkPartition(t, sinks, regions, 50)
}

func TestPartitionDegenerateLine(t *testing.T) {
	// All sinks on one vertical line: a zero-width bounding box must split
	// along y.
	sinks := make([]ctree.Sink, 120)
	for i := range sinks {
		sinks[i] = ctree.Sink{Name: "l", Loc: geom.Point{X: 5, Y: float64(i)}, Cap: 1e-15}
	}
	regions := Partition(sinks, 10)
	checkPartition(t, sinks, regions, 10)
}

// partitionSink keeps the benchmark's result live.
var partitionSink [][]int

// BenchmarkPartition100K partitions the 100,000-sink scale design of
// BenchmarkFlowSmart100K into its 2,048-sink regions: the serial step
// before the hierarchical flow's region fan-out.
func BenchmarkPartition100K(b *testing.B) {
	bm, err := workload.Generate(workload.Scale("scale100k", 100_000, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionSink = Partition(bm.Sinks, 2048)
	}
}
