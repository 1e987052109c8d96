package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

func randomSinks(n int, seed int64, spread float64) []ctree.Sink {
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Name: "ff",
			Loc:  geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread},
			Cap:  (1 + rng.Float64()*2) * 1e-15,
		}
	}
	return sinks
}

// buildBlanket constructs a buffered tree under the blanket rule.
func buildBlanket(t testing.TB, n int, seed int64, spread float64, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	t.Helper()
	res, err := cts.Build(randomSinks(n, seed, spread), geom.Point{X: spread / 2, Y: spread / 2}, te, lib, cts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Tree.SetAllRules(te.BlanketRule)
	return res.Tree
}

func TestRepairSkewConverges(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	for _, tc := range []struct {
		n      int
		spread float64
	}{{60, 1000}, {250, 2500}, {600, 4500}} {
		tr := buildBlanket(t, tc.n, int64(tc.n), tc.spread, te, lib)
		st, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Errorf("n=%d: repair did not converge, final skew %.2f ps", tc.n, st.FinalSkew*1e12)
		}
		res, err := sta.Analyze(tr, te, lib, 40e-12)
		if err != nil {
			t.Fatal(err)
		}
		if v := res.SlewViolations(te.MaxSlew); v > 0 {
			t.Errorf("n=%d: repair broke %d slews", tc.n, v)
		}
		if err := tr.CheckEmbedding(1e-6); err != nil {
			t.Errorf("n=%d: %v", tc.n, err)
		}
	}
}

func TestRepairSkewNoopOnBalanced(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 100, 3, 1500, te, lib)
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
		t.Fatal(err)
	}
	wl := tr.TotalWirelength()
	st, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iters != 0 || tr.TotalWirelength() != wl {
		t.Errorf("repairing a repaired tree must be a no-op: iters=%d", st.Iters)
	}
}

func TestRepairSkewBadTarget(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 10, 5, 200, te, lib)
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, 0, 5, 1); err == nil {
		t.Error("zero target must fail")
	}
}

func TestOptimizeReducesPower(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	for _, tc := range []struct {
		n      int
		spread float64
	}{{80, 1200}, {300, 3000}} {
		tr := buildBlanket(t, tc.n, int64(tc.n)+100, tc.spread, te, lib)
		if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
			t.Fatal(err)
		}
		before, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Optimize(tr, te, lib, Config{})
		if err != nil {
			t.Fatal(err)
		}
		after, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Downgrades == 0 {
			t.Errorf("n=%d: optimizer found nothing to downgrade", tc.n)
		}
		if after.Power.Total() >= before.Power.Total() {
			t.Errorf("n=%d: power %.4f → %.4f mW, no reduction",
				tc.n, before.Power.Total()*1e3, after.Power.Total()*1e3)
		}
		if after.SlewViol > 0 {
			t.Errorf("n=%d: optimization introduced %d slew violations", tc.n, after.SlewViol)
		}
		if after.Skew > te.MaxSkew {
			t.Errorf("n=%d: final skew %.2f ps over bound %.2f ps",
				tc.n, after.Skew*1e12, te.MaxSkew*1e12)
		}
		// The optimizer moves wire off the blanket class (often onto the
		// capacitance-cheaper spacing-only NDR, so the overall NDR
		// fraction may legitimately stay high).
		if after.LenByRule[te.BlanketRule] >= before.LenByRule[te.BlanketRule] {
			t.Errorf("n=%d: no wire left the blanket rule", tc.n)
		}
	}
}

func TestOptimizeBeatsTopKBaselines(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 300, 41, 3000, te, lib)
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
		t.Fatal(err)
	}
	smart := tr.Clone()
	if _, err := Optimize(smart, te, lib, Config{}); err != nil {
		t.Fatal(err)
	}
	sm, _, err := EvaluateTr(smart, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every TopK baseline that meets constraints must cost at least as
	// much switched cap as smart.
	maxLv := MaxStageLevel(tr)
	for k := 0; k <= maxLv+1; k++ {
		base := tr.Clone()
		AssignTopLevels(base, te, k)
		bm, _, err := EvaluateTr(base, te, lib, 40e-12, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bm.SlewViol > 0 {
			continue // infeasible baseline, not comparable
		}
		if bm.SwitchedCap < sm.SwitchedCap*0.999 {
			t.Errorf("TopK k=%d beats smart: %.3f vs %.3f pF",
				k, bm.SwitchedCap*1e12, sm.SwitchedCap*1e12)
		}
	}
}

func TestOptimizeOrdersAllFeasible(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	var caps []float64
	for _, o := range []Order{BySensitivity, ByIndex, ByReverse} {
		tr := buildBlanket(t, 150, 77, 2000, te, lib)
		if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
			t.Fatal(err)
		}
		st, err := Optimize(tr, te, lib, Config{Order: o})
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		m, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.SlewViol > 0 || m.Skew > te.MaxSkew {
			t.Errorf("%v: constraints broken (viol=%d skew=%.2fps)", o, m.SlewViol, m.Skew*1e12)
		}
		if st.Downgrades == 0 {
			t.Errorf("%v: no downgrades", o)
		}
		caps = append(caps, m.SwitchedCap)
	}
	// Sensitivity ordering should not be the worst of the three.
	if caps[0] > caps[1]*1.02 && caps[0] > caps[2]*1.02 {
		t.Errorf("sensitivity order clearly worst: %v", caps)
	}
}

func TestOptimizeDisableRepair(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 150, 99, 2000, te, lib)
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
		t.Fatal(err)
	}
	norepair := tr.Clone()
	stN, err := Optimize(norepair, te, lib, Config{DisableRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	if stN.RepairWire != 0 {
		t.Error("disabled repair must add no wire")
	}
	repaired := tr.Clone()
	stR, err := Optimize(repaired, te, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stR.FinalSkew > te.MaxSkew {
		t.Errorf("with repair, skew %.2f ps over bound", stR.FinalSkew*1e12)
	}
	if stN.FinalSkew < stR.FinalSkew {
		t.Errorf("repair should not worsen skew: %.2f vs %.2f ps",
			stR.FinalSkew*1e12, stN.FinalSkew*1e12)
	}
}

func TestEvaluateInventoryConsistent(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 120, 7, 1800, te, lib)
	m, res, err := EvaluateTr(tr, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range m.LenByRule {
		sum += l
	}
	if math.Abs(sum-m.Wirelength) > 1e-6*m.Wirelength {
		t.Errorf("LenByRule sums to %g, wirelength %g", sum, m.Wirelength)
	}
	if m.NDRFraction != 1 {
		t.Errorf("blanket tree must be 100%% NDR, got %g", m.NDRFraction)
	}
	if m.Buffers != res.BufferCount || m.Buffers < 1 {
		t.Errorf("buffer count mismatch")
	}
	if m.Power.Total() <= 0 || m.SwitchedCap <= 0 {
		t.Error("power must be positive")
	}
	if m.TrackArea <= m.Wirelength*te.Layer.TrackPitch(te.Rule(te.DefaultRule)) {
		t.Error("blanket track area must exceed default-pitch area")
	}
}

func TestStageLevels(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 400, 13, 4000, te, lib)
	lv := StageLevels(tr)
	if lv[tr.Root] != 0 {
		t.Error("root level must be 0")
	}
	maxLv := MaxStageLevel(tr)
	if maxLv < 1 {
		t.Errorf("a 4 mm tree must have multiple stage levels, got %d", maxLv)
	}
	// Levels never decrease toward the leaves.
	for i := range tr.Nodes {
		p := tr.Nodes[i].Parent
		if p != ctree.NoNode && lv[i] < lv[p] {
			t.Fatalf("level decreases from %d to %d", lv[p], lv[i])
		}
	}
}

func TestAssignTopLevels(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 400, 17, 4000, te, lib)
	maxLv := MaxStageLevel(tr)

	AssignTopLevels(tr, te, 0)
	m0, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m0.NDRFraction != 0 {
		t.Errorf("k=0 must be all-default, NDR fraction %g", m0.NDRFraction)
	}
	AssignTopLevels(tr, te, maxLv+1)
	mAll, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mAll.NDRFraction != 1 {
		t.Errorf("k=max+1 must be all-NDR, fraction %g", mAll.NDRFraction)
	}
	AssignTopLevels(tr, te, 1)
	m1, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NDRFraction <= 0 || m1.NDRFraction >= 1 {
		t.Errorf("k=1 must be a mix, fraction %g", m1.NDRFraction)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MaxSlew: -1},
		{MaxSlew: math.NaN()},
		{MaxSkew: math.NaN()},
		{InSlew: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config must be valid (defaults apply): %v", err)
	}
}

func TestOrderString(t *testing.T) {
	for _, o := range []Order{BySensitivity, ByIndex, ByReverse, Order(9)} {
		if o.String() == "" {
			t.Error("empty order name")
		}
	}
}

func BenchmarkOptimize300(b *testing.B) {
	te := tech.Tech45()
	lib := cell.Default45()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := buildBlanket(b, 300, 55, 3000, te, lib)
		if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Optimize(tr, te, lib, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
