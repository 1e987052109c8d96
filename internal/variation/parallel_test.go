package variation

import (
	"strings"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/obs"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// TestMonteCarloWorkerCountInvariance is the determinism contract: the
// full Stats must be bit-identical regardless of how many workers run
// the trials, because trial i's RNG substream depends only on (Seed, i).
func TestMonteCarloWorkerCountInvariance(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := builtTree(t, 80, 3, 1200, te, lib)
	p := Defaults(7)
	p.Samples = 40

	var ref *Stats
	for _, workers := range []int{1, 2, 8} {
		pw := p
		pw.Workers = workers
		st, err := MonteCarlo(tr, te, lib, sta.DefaultInSlew, pw, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = st
			continue
		}
		for i := range ref.Samples {
			if st.Samples[i] != ref.Samples[i] {
				t.Fatalf("workers=%d: sample %d = %+v, want %+v",
					workers, i, st.Samples[i], ref.Samples[i])
			}
		}
		if st.MeanSkew != ref.MeanSkew || st.StdSkew != ref.StdSkew ||
			st.P95Skew != ref.P95Skew || st.MaxSkew != ref.MaxSkew ||
			st.WorstSlew != ref.WorstSlew {
			t.Fatalf("workers=%d: summary stats differ: %+v vs %+v", workers, st, ref)
		}
	}
}

// TestMonteCarloSpanLeak is the regression test for the error-path span
// leak: when the per-trial analysis fails, the trial span (and the run
// span) must still be ended and emitted — previously an analysis error
// returned before tsp.End(), leaving the span open forever.
func TestMonteCarloSpanLeak(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := builtTree(t, 40, 5, 800, te, lib)
	col := obs.NewCollector()
	tr := obs.New(col)
	p := Defaults(1)
	p.Samples = 4
	// A negative input slew forces sta to reject every trial's analysis.
	if _, err := MonteCarlo(tree, te, lib, -1, p, tr); err == nil {
		t.Fatal("negative input slew must fail the run")
	}
	trials, runs := 0, 0
	for _, ev := range col.Events() {
		switch {
		case strings.HasSuffix(ev.Span, "/trial"):
			trials++
		case ev.Span == "variation.montecarlo":
			runs++
		}
	}
	if trials == 0 {
		t.Error("failing trial's span never emitted (leaked)")
	}
	if runs != 1 {
		t.Errorf("run span emitted %d times, want 1", runs)
	}
}

// TestMonteCarloTrialSpansWellFormed checks the concurrent span tree:
// every trial span must be a direct child of the run span (path
// "variation.montecarlo/trial"), never nested under another trial or a
// foreign ambient span, at any worker count.
func TestMonteCarloTrialSpansWellFormed(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := builtTree(t, 40, 5, 800, te, lib)
	col := obs.NewCollector()
	tr := obs.New(col)
	p := Defaults(3)
	p.Samples = 24
	p.Workers = 8
	if _, err := MonteCarlo(tree, te, lib, sta.DefaultInSlew, p, tr); err != nil {
		t.Fatal(err)
	}
	trials := 0
	for _, ev := range col.Events() {
		if !strings.Contains(ev.Span, "trial") {
			continue
		}
		trials++
		if ev.Span != "variation.montecarlo/trial" {
			t.Errorf("trial span has path %q, want variation.montecarlo/trial", ev.Span)
		}
		if ev.Depth != 1 {
			t.Errorf("trial span depth %d, want 1", ev.Depth)
		}
	}
	if trials != p.Samples {
		t.Errorf("%d trial spans emitted, want %d", trials, p.Samples)
	}
}
