package core

import (
	"math"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/tech"
)

func TestEMCurrentScale(t *testing.T) {
	// Sanity of magnitudes: a 100 fF stage at 1 GHz / 1 V charges
	// Q = C·V per cycle → I_avg = 0.1 mA; shaped RMS ≈ 0.16 mA.
	te := tech.Tech45()
	l := DefaultEMLimit()
	i := edgeRmsCurrent(100e-15, te, l)
	if i < 1e-4 || i > 3e-4 {
		t.Errorf("RMS current %g A out of expected range", i)
	}
	// A minimum-width wire at 0.7 mA/µm sustains 49 µA: a heavy stage
	// needs a few× width — the constraint is active but satisfiable
	// within the rule menu.
	sustain := l.JRms * te.Layer.MinWidth
	if sustain <= 0 || i/sustain < 2 || i/sustain > 5 {
		t.Errorf("floor ratio %g implausible", i/sustain)
	}
}

func TestEMFloorsMonotone(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 120, 61, 1800, te, lib)
	floors, err := EMFloors(tr, te, lib, 40e-12, DefaultEMLimit())
	if err != nil {
		t.Fatal(err)
	}
	// Floors are nonnegative and the root stage's first edges (heaviest
	// in-stage loads) need at least as much width as typical leaf edges.
	var maxFloor float64
	for i, f := range floors {
		if f < 0 || math.IsNaN(f) {
			t.Fatalf("bad floor %g at %d", f, i)
		}
		maxFloor = math.Max(maxFloor, f)
	}
	if maxFloor <= 0 {
		t.Fatal("no edge carries current?")
	}
	if maxFloor > 10 {
		t.Fatalf("max floor %.1f× implausibly high", maxFloor)
	}
}

func TestAuditAndEnforceEM(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 200, 67, 2500, te, lib)
	l := DefaultEMLimit()

	// All-default assignment: heavy-load edges must violate.
	AssignAll(tr, te.DefaultRule)
	viols, err := AuditEM(tr, te, lib, 40e-12, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Fatal("all-default must have EM violations at stage-top edges")
	}
	for _, v := range viols {
		if v.Required <= v.Width {
			t.Fatalf("non-violation reported: %+v", v)
		}
	}

	n, err := EnforceEM(tr, te, lib, 40e-12, l)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(viols) {
		t.Errorf("enforced %d, audited %d", n, len(viols))
	}
	// Enforcement changes loads only via rule caps; floors can creep, so
	// audit again and allow at most a small second wave.
	viols2, err := AuditEM(tr, te, lib, 40e-12, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols2) > len(viols)/4 {
		t.Errorf("enforcement left %d of %d violations", len(viols2), len(viols))
	}

	// Blanket 2W2S should already satisfy the rule almost everywhere.
	AssignAll(tr, te.BlanketRule)
	bviols, err := AuditEM(tr, te, lib, 40e-12, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(bviols) > len(viols)/10 {
		t.Errorf("blanket NDR should nearly satisfy EM: %d violations", len(bviols))
	}
}

func TestEnforceEMImpossible(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 50, 71, 800, te, lib)
	l := EMLimit{JRms: 1e-6, WaveShape: 1.6} // absurdly strict
	if _, err := EnforceEM(tr, te, lib, 40e-12, l); err == nil {
		t.Error("unsatisfiable EM rule must error")
	}
}

func TestEMLimitValidate(t *testing.T) {
	if err := (EMLimit{}).Validate(); err == nil {
		t.Error("zero limit must fail")
	}
	if err := DefaultEMLimit().Validate(); err != nil {
		t.Error(err)
	}
}

func TestSmartWithEMFloor(t *testing.T) {
	// The documented composition: optimize, then enforce EM, then verify
	// the tree is still legal on slew/skew (EM upgrades only add width,
	// which can only improve transitions).
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 150, 73, 2000, te, lib)
	if _, err := Optimize(tr, te, lib, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := EnforceEM(tr, te, lib, 40e-12, DefaultEMLimit()); err != nil {
		t.Fatal(err)
	}
	m, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.SlewViol != 0 {
		t.Errorf("EM enforcement broke %d slews", m.SlewViol)
	}
	viols, err := AuditEM(tr, te, lib, 40e-12, DefaultEMLimit())
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("%d EM violations after enforcement", len(viols))
	}
}

func TestOptimizeWithEMFloor(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 200, 79, 2500, te, lib)
	l := DefaultEMLimit()
	cfg := Config{EM: &l}
	if _, err := Optimize(tr, te, lib, cfg); err != nil {
		t.Fatal(err)
	}
	viols, err := AuditEM(tr, te, lib, 40e-12, l)
	if err != nil {
		t.Fatal(err)
	}
	// The floors were computed under blanket parasitics (conservative),
	// so the optimized tree must audit clean up to snaking-induced load
	// growth on a handful of edges.
	if len(viols) > len(tr.Nodes)/100 {
		t.Errorf("EM-aware optimization left %d violations", len(viols))
	}
	// It still saves power vs blanket.
	m, _, err := EvaluateTr(tr, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	blanket := buildBlanket(t, 200, 79, 2500, te, lib)
	bm, _, err := EvaluateTr(blanket, te, lib, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Power.Total() >= bm.Power.Total() {
		t.Errorf("EM-aware smart %.3f mW not below blanket %.3f mW",
			m.Power.Total()*1e3, bm.Power.Total()*1e3)
	}
	if m.SlewViol > 0 || m.Skew > te.MaxSkew {
		t.Errorf("constraints broken: viol=%d skew=%.2fps", m.SlewViol, m.Skew*1e12)
	}
}
