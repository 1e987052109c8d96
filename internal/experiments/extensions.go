package experiments

import (
	"fmt"
	"math/rand"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/report"
	"smartndr/internal/workload"
)

// T4MultiCorner runs three-corner signoff per scheme: each scheme's tree
// is analyzed at typical, slow, and fast silicon. Expected shape: within-
// corner skews track the nominal ordering; the cross-corner spread is an
// order of magnitude larger than any single-corner skew (why signoff uses
// common-path-pessimism removal), identical in shape across schemes.
func T4MultiCorner(o Options) error {
	spec, err := workload.ByName("cns02")
	if err != nil {
		return err
	}
	if o.Quick {
		spec.Sinks /= 4
	}
	built, err := build(o.flow(smartndr.FlowConfig{}), spec)
	if err != nil {
		return err
	}
	tb := report.NewTable("T4: three-corner signoff ("+spec.Name+")",
		"scheme", "corner", "skew (ps)", "worst slew (ps)", "viol", "ins delay (ps)", "x-corner (ps)")
	schemes := []smartndr.Scheme{smartndr.SchemeAllDefault, smartndr.SchemeBlanket, smartndr.SchemeSmart}
	// Per-scheme signoff runs concurrently on private clones; the reports
	// are slot-addressed so rows render in presentation order.
	reps := make([]*core.MultiCornerReport, len(schemes))
	err = o.fanOut(len(schemes), func(si int, o Options) error {
		f := o.flow(smartndr.FlowConfig{})
		res, err := f.Apply(built, schemes[si])
		if err != nil {
			return err
		}
		reps[si], err = f.EvaluateCorners(res.Tree)
		return err
	})
	if err != nil {
		return err
	}
	for si, s := range schemes {
		for i, cm := range reps[si].Corners {
			cross := ""
			if i == 0 {
				cross = report.Ps(reps[si].CrossCornerSkew)
			}
			tb.AddRow(label(s), cm.Corner.Name, report.Ps(cm.Skew), report.Ps(cm.WorstSlew),
				fmt.Sprintf("%d", cm.SlewViol), report.Ps(cm.MaxInsDel), cross)
		}
	}
	return tb.Render(o.Out)
}

// T5ElectromigrationAudit reports EM width-floor violations per scheme and
// the cost of enforcing the floor on the smart result. Expected shape:
// all-default violates on every heavy in-stage edge; blanket is clean;
// smart needs only a sliver of enforcement cap because the heavy edges
// are exactly the ones it already kept wide for slew.
func T5ElectromigrationAudit(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	spec := figureSpec(o)
	built, err := build(f, spec)
	if err != nil {
		return err
	}
	l := core.DefaultEMLimit()
	tb := report.NewTable(
		fmt.Sprintf("T5: electromigration audit (%s, %.1f mA/µm RMS)", spec.Name, l.JRms*1e3),
		"scheme", "EM violations", "worst need (×W)", "enforce upgrades", "power before (mW)", "power after (mW)")
	for _, arm := range []struct {
		name   string
		f      *smartndr.Flow
		scheme smartndr.Scheme
	}{
		{"all-default", f, smartndr.SchemeAllDefault},
		{"blanket", f, smartndr.SchemeBlanket},
		{"smart", f, smartndr.SchemeSmart},
		// EM floors respected *inside* the optimizer: edges that carry
		// real current never leave their width class, so the audit is
		// clean by construction and no post-hoc upgrade churn occurs.
		{"smart+EM", o.flow(smartndr.FlowConfig{Opt: core.Config{EM: &l}}), smartndr.SchemeSmart},
	} {
		res, err := arm.f.Apply(built, arm.scheme)
		if err != nil {
			return err
		}
		viols, err := f.AuditEM(res.Tree)
		if err != nil {
			return err
		}
		worstNeed := 0.0
		for _, v := range viols {
			if v.Required > worstNeed {
				worstNeed = v.Required
			}
		}
		up, err := f.EnforceEM(res.Tree)
		if err != nil {
			return err
		}
		after, err := f.Evaluate(res.Tree)
		if err != nil {
			return err
		}
		tb.AddRow(arm.name, fmt.Sprintf("%d", len(viols)), fmt.Sprintf("%.2f", worstNeed),
			fmt.Sprintf("%d", up), report.MW(res.Metrics.Power.Total()), report.MW(after.Power.Total()))
	}
	return tb.Render(o.Out)
}

// A4OptimalityGap compares the greedy optimizer against exhaustive optimal
// assignment on small instances. Expected shape: gap within a few percent
// (the capacitance objective is separable; the couplings greedy ignores
// are second-order at this scale).
func A4OptimalityGap(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	greedy := o.flow(smartndr.FlowConfig{Opt: core.Config{DisableRepair: true}})
	cfg := f.Config()
	te := cfg.Tech
	tb := report.NewTable("A4: greedy vs exhaustive optimal (4-sink instances)",
		"seed", "edges", "evaluated", "optimal cap (fF)", "greedy cap (fF)", "gap")
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if o.Quick {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		sinks := make([]smartndr.Sink, 4)
		for i := range sinks {
			sinks[i] = smartndr.Sink{
				Loc: smartndr.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
				Cap: (1 + rng.Float64()) * 1e-15,
			}
		}
		built, err := f.Build(sinks, smartndr.Point{X: 150, Y: 150})
		if err != nil {
			return err
		}
		opt, err := core.ExhaustiveOptimal(built.Tree, te, cfg.Library, cfg.InSlew, te.MaxSlew, te.MaxSkew)
		if err != nil {
			return err
		}
		if !opt.Feasible {
			tb.AddRow(fmt.Sprintf("%d", seed), "-", "-", "infeasible", "-", "-")
			continue
		}
		res, err := greedy.Apply(built, smartndr.SchemeSmart)
		if err != nil {
			return err
		}
		greedyCap := res.Metrics.SwitchedCap
		tb.AddRow(fmt.Sprintf("%d", seed), fmt.Sprintf("%d", len(built.Tree.Nodes)-1),
			fmt.Sprintf("%d", opt.Evaluated),
			fmt.Sprintf("%.2f", opt.BestCap*1e15),
			fmt.Sprintf("%.2f", greedyCap*1e15),
			report.Pct(greedyCap/opt.BestCap-1))
	}
	return tb.Render(o.Out)
}
