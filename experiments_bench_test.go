package smartndr_test

// One testing.B benchmark per reproduced table and figure (see DESIGN.md
// §3 and EXPERIMENTS.md). Each drives the same code path as
// `cmd/experiments -exp <id>`, in quick mode so `go test -bench=.` stays
// minutes-scale; run the command for the full-size tables. They live in
// the external test package because internal/experiments imports the
// facade.

import (
	"io"
	"testing"

	"smartndr/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := experiments.Options{Out: io.Discard, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1RuleCharacterization(b *testing.B) { benchExperiment(b, "t1") }
func BenchmarkT2MainFlow(b *testing.B)             { benchExperiment(b, "t2") }
func BenchmarkT3Scaling(b *testing.B)              { benchExperiment(b, "t3") }
func BenchmarkF1SlewSweep(b *testing.B)            { benchExperiment(b, "f1") }
func BenchmarkF2DepthProfile(b *testing.B)         { benchExperiment(b, "f2") }
func BenchmarkF3Variation(b *testing.B)            { benchExperiment(b, "f3") }
func BenchmarkF4TopKSweep(b *testing.B)            { benchExperiment(b, "f4") }
func BenchmarkA1Ablation(b *testing.B)             { benchExperiment(b, "a1") }
func BenchmarkA2SkewRepair(b *testing.B)           { benchExperiment(b, "a2") }
func BenchmarkA3ConstructionModel(b *testing.B)    { benchExperiment(b, "a3") }
func BenchmarkT4MultiCorner(b *testing.B)          { benchExperiment(b, "t4") }
func BenchmarkT5Electromigration(b *testing.B)     { benchExperiment(b, "t5") }
func BenchmarkA4OptimalityGap(b *testing.B)        { benchExperiment(b, "a4") }
