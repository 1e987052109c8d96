// Package core implements the paper's contribution: smart non-default
// routing (NDR) rule assignment for clock power reduction.
//
// A conventional flow routes the entire clock tree with one blanket NDR
// (e.g. double width / double spacing) to guarantee sharp transitions and
// variation robustness — and pays for it in switched capacitance, since a
// 2W2S wire carries 20–30% more capacitance per micron than a default-rule
// wire. Smart NDR assigns a routing rule *per tree edge*: every edge is
// downgraded to the cheapest rule class that keeps all transition (slew)
// constraints met, with the residual skew perturbation cleaned up by a
// wire-snaking skew-repair pass. The result keeps the blanket tree's
// timing guarantees at a fraction of its capacitance.
//
// The package provides:
//
//   - Optimize: the sensitivity-ordered greedy downgrade with stage-local
//     incremental evaluation and integrated skew repair (the "smart" flow);
//   - baseline assignments (all-default, blanket, top-K stage levels) that
//     the experiments compare against;
//   - RepairSkew: Elmore-guided wire snaking usable on any buffered tree;
//   - Evaluate: the shared metrics extraction (power, skew, slew,
//     wirelength, routing-track area).
package core

import (
	"errors"
	"fmt"
	"slices"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/obs"
	"smartndr/internal/power"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// Order selects how Optimize ranks downgrade candidates (ablation knob).
type Order int

const (
	// BySensitivity ranks edges by capacitance gain (largest first) —
	// the smart ordering.
	BySensitivity Order = iota
	// ByIndex processes edges in arbitrary structural order.
	ByIndex
	// ByReverse processes edges in reverse structural order.
	ByReverse
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case BySensitivity:
		return "sensitivity"
	case ByIndex:
		return "index"
	case ByReverse:
		return "reverse"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Config controls Optimize.
type Config struct {
	// MaxSlew/MaxSkew override the technology bounds when nonzero.
	MaxSlew float64
	MaxSkew float64
	// InSlew is the clock transition at the root driver input
	// (default sta.DefaultInSlew).
	InSlew float64
	// SlewSafety derates the slew bound during optimization so the final
	// network keeps headroom (default 0.98).
	SlewSafety float64
	// MaxPasses bounds the downgrade sweeps (default 3).
	MaxPasses int
	// EdgeDeltaCap bounds the arrival shift a single edge change may
	// introduce at any stage endpoint; keeps the post-pass skew repair
	// cheap (default: the skew bound).
	EdgeDeltaCap float64
	// Order is the candidate ordering (ablation A1).
	Order Order
	// DisableRepair skips the integrated skew repair (ablation A2).
	DisableRepair bool
	// RepairIters bounds skew-repair iterations (default 25).
	RepairIters int
	// EM, when non-nil, activates electromigration awareness: per-edge
	// width floors are computed up front and no edge is downgraded below
	// its floor. Nil reproduces the slew/skew-only optimization.
	EM *EMLimit
	// Tracer, when non-nil, records per-phase spans and optimizer
	// counters (downgrades, upgrades, repair rounds). Nil disables
	// instrumentation at no cost.
	Tracer *obs.Tracer
}

func (c Config) withDefaults(te *tech.Tech) Config {
	if c.MaxSlew == 0 {
		c.MaxSlew = te.MaxSlew
	}
	if c.MaxSkew == 0 {
		c.MaxSkew = te.MaxSkew
	}
	if c.InSlew == 0 {
		c.InSlew = sta.DefaultInSlew
	}
	if c.SlewSafety == 0 {
		c.SlewSafety = 0.98
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = 3
	}
	if c.EdgeDeltaCap == 0 {
		c.EdgeDeltaCap = c.MaxSkew
	}
	if c.RepairIters == 0 {
		c.RepairIters = 25
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxSlew < 0 || c.MaxSkew < 0 || c.InSlew < 0 {
		return errors.New("core: negative constraint")
	}
	if c.SlewSafety < 0 || c.SlewSafety > 1 {
		return fmt.Errorf("core: slew safety %g out of [0,1]", c.SlewSafety)
	}
	if c.MaxPasses < 0 || c.RepairIters < 0 {
		return errors.New("core: negative iteration bound")
	}
	return nil
}

// Metrics summarizes a clock network for the experiment tables.
type Metrics struct {
	Power       power.Breakdown `json:"power"`
	SwitchedCap float64         `json:"switched_cap"` // F
	Wirelength  float64         `json:"wirelength"`   // µm
	TrackArea   float64         `json:"track_area"`   // µm²
	Buffers     int             `json:"buffers"`
	WorstSlew   float64         `json:"worst_slew"` // s
	SlewViol    int             `json:"slew_violations"`
	Skew        float64         `json:"skew"`          // s
	MaxInsDelay float64         `json:"max_ins_delay"` // s
	// LenByRule[ri] is the wirelength routed under rule ri, µm.
	LenByRule []float64 `json:"len_by_rule"`
	// NDRFraction is the wirelength fraction on non-default rules.
	NDRFraction float64 `json:"ndr_fraction"`
}

// EvaluateTr analyzes the tree and extracts the full metric set. The STA
// and the metric extraction record separate spans under "core.evaluate";
// a nil tracer disables them.
func EvaluateTr(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, tr *obs.Tracer) (Metrics, *sta.Result, error) {
	sp := tr.Start("core.evaluate")
	defer sp.End()
	eng := sta.NewIncremental(te, lib)
	res, err := eng.Full(t, inSlew, nil, tr)
	if err != nil {
		return Metrics{}, nil, err
	}
	return extractMetrics(te, eng, res, tr), res, nil
}

// EvaluateInc is EvaluateTr with the analysis served by a shared
// dirty-region engine instead of a from-scratch pass: the engine's
// bitwise-exactness contract makes the two interchangeable, which is what
// session responses being byte-identical to cold runs rests on. Edited
// nodes must already have been reported via eng.Touch, and eng must be
// the engine of te and lib. The metric extraction then costs what the
// edits changed, not the tree (see sta.Incremental.Summary).
func EvaluateInc(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, eng *sta.Incremental, tr *obs.Tracer) (Metrics, *sta.Result, error) {
	sp := tr.Start("core.evaluate_inc")
	defer sp.End()
	res, err := eng.Analyze(t, inSlew)
	if err != nil {
		return Metrics{}, nil, err
	}
	return extractMetrics(te, eng, res, tr), res, nil
}

// extractMetrics folds an analysis result and the engine's whole-tree
// summary into the experiment-table metric set. The cold and incremental
// evaluate paths share it, and the engine computes the summary through
// the same code either way, so both produce identical bytes for
// identical trees.
func extractMetrics(te *tech.Tech, eng *sta.Incremental, res *sta.Result, tr *obs.Tracer) Metrics {
	exSpan := tr.Start("extract")
	defer exSpan.End()
	sum := eng.Summary()
	m := Metrics{
		Power:       power.Compute(res, te),
		SwitchedCap: res.TotalSwitchedCap(),
		Wirelength:  sum.WireLen,
		TrackArea:   sum.TrackArea,
		Buffers:     res.BufferCount,
		WorstSlew:   sum.WorstSlew,
		SlewViol:    sum.SlewViol,
		Skew:        sum.Skew,
		MaxInsDelay: sum.MaxSinkArrival,
		LenByRule:   slices.Clone(sum.LenByRule),
	}
	if m.Wirelength > 0 {
		m.NDRFraction = sum.NDRLen / m.Wirelength
	}
	return m
}

// AssignAll sets every edge to rule index ri — the all-default and blanket
// baselines.
func AssignAll(t *ctree.Tree, ri int) { t.SetAllRules(ri) }

// StageLevels returns, per node, the level of the buffer stage that owns
// the node's feeding edge: 0 for the root driver's stage, increasing
// downstream. The root node itself is level 0.
func StageLevels(t *ctree.Tree) []int {
	lv := make([]int, len(t.Nodes))
	t.PreOrder(func(i int) {
		p := t.Nodes[i].Parent
		if p == ctree.NoNode {
			lv[i] = 0
			return
		}
		if t.Nodes[p].BufIdx != ctree.NoBuf && p != t.Root {
			lv[i] = lv[p] + 1
		} else {
			lv[i] = lv[p]
		}
	})
	return lv
}

// AssignTopLevels applies the blanket NDR to edges in stage levels < k and
// the default rule to all deeper edges — the "rule-of-thumb" baseline that
// keeps NDR near the root where wires are long.
func AssignTopLevels(t *ctree.Tree, te *tech.Tech, k int) {
	lv := StageLevels(t)
	for i := range t.Nodes {
		if lv[i] < k {
			t.Nodes[i].Rule = te.BlanketRule
		} else {
			t.Nodes[i].Rule = te.DefaultRule
		}
	}
}

// AssignTrunk applies the blanket NDR to the clock trunk — every edge in a
// stage whose driver still has buffers below it — and the default rule to
// the leaf stages (the local nets below the last buffer level). This is
// the practical designer rule-of-thumb baseline: "NDR the trunk, default
// the twigs."
func AssignTrunk(t *ctree.Tree, te *tech.Tech) {
	hasBufBelow := make([]bool, len(t.Nodes))
	t.PostOrder(func(v int) {
		for _, k := range t.Nodes[v].Kids {
			if k == ctree.NoNode {
				continue
			}
			if hasBufBelow[k] || t.Nodes[k].BufIdx != ctree.NoBuf {
				hasBufBelow[v] = true
			}
		}
	})
	drv := make([]int, len(t.Nodes))
	t.PreOrder(func(v int) {
		p := t.Nodes[v].Parent
		if p == ctree.NoNode {
			drv[v] = v
			t.Nodes[v].Rule = te.BlanketRule
			return
		}
		if t.Nodes[p].BufIdx != ctree.NoBuf {
			drv[v] = p
		} else {
			drv[v] = drv[p]
		}
		if hasBufBelow[drv[v]] {
			t.Nodes[v].Rule = te.BlanketRule
		} else {
			t.Nodes[v].Rule = te.DefaultRule
		}
	})
}

// MaxStageLevel returns the deepest stage level in the tree.
func MaxStageLevel(t *ctree.Tree) int {
	maxLv := 0
	for _, lv := range StageLevels(t) {
		if lv > maxLv {
			maxLv = lv
		}
	}
	return maxLv
}
