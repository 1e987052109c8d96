package core

import (
	"fmt"
	"math"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// Electromigration is the third reason clock nets carry NDRs (after slew
// and variation): a clock wire charges its downstream capacitance every
// cycle, so its RMS current density scales with C·V·f/width, and EM
// lifetime rules impose a *minimum width* per edge that grows with the
// load the edge feeds. Smart assignment must not downgrade an edge below
// its EM floor; this file provides the floor computation, the audit, and
// the enforcement hook used by Optimize.

// EMLimit parameterizes the current-density rule.
type EMLimit struct {
	// JRms is the allowed RMS current density per micron of wire width,
	// A/µm. Derated clock-layer copper at 45 nm sustains ≈ 0.5–1.5 mA/µm.
	JRms float64
}

// waveShape converts average charging current to RMS for a clock square
// wave: the usual triangle-pulse approximation.
const waveShape = 1.6

// DefaultEMLimit returns a 45 nm-class clock EM rule: 0.7 mA/µm RMS,
// the derated (105 °C, thin-barrier) copper limit clock signoff applies.
// At this level the heaviest in-stage edges of a cap-budgeted tree need
// ≈1.2–1.7× width — the constraint is active exactly where the blanket
// NDR already provides width, which is the practical reason clock NDRs
// carry a width component at all.
func DefaultEMLimit() EMLimit {
	return EMLimit{JRms: 0.7e-3}
}

// Validate checks the limit.
func (l EMLimit) Validate() error {
	if l.JRms <= 0 {
		return fmt.Errorf("core: bad EM limit %+v", l)
	}
	return nil
}

// edgeRmsCurrent returns the RMS current through an edge: the charge
// delivered per cycle to everything below it, times f, shaped to RMS.
// downCap here is the *full* downstream switched cap through this edge
// (wire + pins through the next buffers is not enough: the buffers' own
// input pins terminate the charge path, so within-stage downstream cap is
// the right quantity — the same D the STA exposes).
func edgeRmsCurrent(downCap float64, te *tech.Tech, l EMLimit) float64 {
	return waveShape * downCap * te.Vdd * te.Freq
}

// EMFloors computes, per node, the minimum rule index (in the given
// cap-ascending rule order) whose width sustains the edge's RMS current.
// Returns the floor as a minimum *width multiplier* per edge; rule
// legality is then a simple WMult comparison.
func EMFloors(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, l EMLimit) ([]float64, error) {
	return emFloors(sta.NewIncremental(te, lib), t, te, inSlew, l, make([]float64, len(t.Nodes)))
}

// emFloors is EMFloors against a caller-supplied timing engine, written
// into floors, one entry per node: called right after another analysis of
// the same tree state (as Optimize does per pass, into one slice for all
// its passes), the timing query is served from cache.
func emFloors(tim timer, t *ctree.Tree, te *tech.Tech, inSlew float64, l EMLimit, floors []float64) ([]float64, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	res, err := tim.Analyze(t, inSlew)
	if err != nil {
		return nil, err
	}
	for i := range t.Nodes {
		if t.Nodes[i].Parent == ctree.NoNode {
			floors[i] = 0
			continue
		}
		irms := edgeRmsCurrent(res.DownCap[i], te, l)
		floors[i] = irms / (l.JRms * te.Layer.MinWidth)
	}
	return floors, nil
}

// EMViolation is one edge below its EM width floor.
type EMViolation struct {
	Node     int
	Rule     string
	Width    float64 // WMult in use
	Required float64 // minimum WMult
	IRms     float64 // A
}

// AuditEM lists every edge whose assigned rule is narrower than its EM
// floor.
func AuditEM(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, l EMLimit) ([]EMViolation, error) {
	tim := sta.NewIncremental(te, lib)
	floors, err := emFloors(tim, t, te, inSlew, l, make([]float64, len(t.Nodes)))
	if err != nil {
		return nil, err
	}
	res, err := tim.Analyze(t, inSlew) // cached: same tree state as the floors
	if err != nil {
		return nil, err
	}
	var out []EMViolation
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Parent == ctree.NoNode {
			continue
		}
		rule := te.Rule(nd.Rule)
		if rule.WMult < floors[i] {
			out = append(out, EMViolation{
				Node:     i,
				Rule:     rule.Name,
				Width:    rule.WMult,
				Required: floors[i],
				IRms:     edgeRmsCurrent(res.DownCap[i], te, l),
			})
		}
	}
	return out, nil
}

// EnforceEM upgrades every EM-violating edge to the cheapest rule class
// meeting its width floor. Returns the number of upgraded edges; errors
// if some edge's floor exceeds every class in the menu.
func EnforceEM(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, l EMLimit) (int, error) {
	floors, err := EMFloors(t, te, lib, inSlew, l)
	if err != nil {
		return 0, err
	}
	byCap := rulesByCap(te)
	upgraded := 0
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Parent == ctree.NoNode || te.Rule(nd.Rule).WMult >= floors[i] {
			continue
		}
		found := false
		for _, ri := range byCap {
			if te.Rule(ri).WMult >= floors[i] {
				nd.Rule = ri
				upgraded++
				found = true
				break
			}
		}
		if !found {
			return upgraded, fmt.Errorf("core: edge %d needs %.2f× width, menu tops out at %.2f×",
				i, floors[i], maxWidth(te))
		}
	}
	return upgraded, nil
}

func maxWidth(te *tech.Tech) float64 {
	w := 0.0
	for i := 0; i < te.NumRules(); i++ {
		w = math.Max(w, te.Rule(i).WMult)
	}
	return w
}
