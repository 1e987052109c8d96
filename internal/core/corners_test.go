package core

import (
	"context"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/tech"
)

func TestStandardCornersValid(t *testing.T) {
	cs := tech.StandardCorners()
	if len(cs) != 3 {
		t.Fatalf("corner count %d", len(cs))
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if _, err := tech.CornerByName("slow"); err != nil {
		t.Error(err)
	}
	if _, err := tech.CornerByName("nope"); err == nil {
		t.Error("unknown corner must fail")
	}
}

func TestEvaluateCornersOrdering(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 150, 31, 2000, te, lib)
	rep, err := EvaluateCorners(tr, te, lib, 40e-12, tech.StandardCorners())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corners) != 3 {
		t.Fatalf("corners = %d", len(rep.Corners))
	}
	byName := map[string]CornerMetrics{}
	for _, c := range rep.Corners {
		byName[c.Corner.Name] = c
	}
	// Slow silicon is slower, fast is faster.
	if !(byName["fast"].MaxInsDel < byName["typ"].MaxInsDel &&
		byName["typ"].MaxInsDel < byName["slow"].MaxInsDel) {
		t.Errorf("insertion delays out of order: fast %g typ %g slow %g",
			byName["fast"].MaxInsDel, byName["typ"].MaxInsDel, byName["slow"].MaxInsDel)
	}
	// Slow corner has the worst transitions.
	if byName["slow"].WorstSlew <= byName["fast"].WorstSlew {
		t.Error("slow corner should have worse slews than fast")
	}
	if rep.WorstSkew < byName["typ"].Skew {
		t.Error("worst skew below typical skew")
	}
	// Cross-corner spread must dwarf any single-corner skew: global
	// derates shift all arrivals by ~25%, which is tens of picoseconds.
	if rep.CrossCornerSkew <= rep.WorstSkew {
		t.Errorf("cross-corner spread %g should exceed single-corner skew %g",
			rep.CrossCornerSkew, rep.WorstSkew)
	}
}

func TestEvaluateCornersProportionalSkew(t *testing.T) {
	// Uniform derating scales all arrivals by a common factor, so the
	// within-corner skew should stay roughly proportional — the balanced
	// tree stays balanced across corners.
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 200, 37, 2500, te, lib)
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, te.MaxSkew, 30, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := EvaluateCorners(tr, te, lib, 40e-12, tech.StandardCorners())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Corners {
		if c.Skew > 2*te.MaxSkew {
			t.Errorf("corner %s: skew %.2f ps blows up", c.Corner.Name, c.Skew*1e12)
		}
	}
}

func TestEvaluateCornersErrors(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 10, 41, 200, te, lib)
	if _, err := EvaluateCorners(tr, te, lib, 40e-12, nil); err == nil {
		t.Error("no corners must fail")
	}
	bad := []tech.Corner{{Name: "x", RFactor: 0, CFactor: 1, BufFactor: 1}}
	if _, err := EvaluateCorners(tr, te, lib, 40e-12, bad); err == nil {
		t.Error("invalid corner must fail")
	}
}
