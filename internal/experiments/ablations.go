package experiments

import (
	"fmt"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/cts"
	"smartndr/internal/report"
	"smartndr/internal/workload"
)

// A1OrderAblation compares the optimizer's candidate orderings:
// sensitivity (largest cap gain first) vs structural index orders. The
// expected shape: sensitivity matches or beats the naive orders in final
// capacitance at equal constraint compliance — ordering matters because
// early acceptances consume the shared skew budget.
func A1OrderAblation(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	specs := []string{"cns02", "cns03"}
	if o.Quick {
		specs = specs[:1]
	}
	tb := report.NewTable("A1: candidate-ordering ablation",
		"bench", "order", "cap (pF)", "power (mW)", "downgrades", "viol", "skew (ps)")
	for _, name := range specs {
		spec, err := workload.ByName(name)
		if err != nil {
			return err
		}
		if o.Quick {
			spec.Sinks /= 4
		}
		built, err := build(f, spec)
		if err != nil {
			return err
		}
		for _, ord := range []core.Order{core.BySensitivity, core.ByIndex, core.ByReverse} {
			res, err := o.flow(smartndr.FlowConfig{Opt: core.Config{Order: ord}}).Apply(built, smartndr.SchemeSmart)
			if err != nil {
				return err
			}
			m := res.Metrics
			tb.AddRow(spec.Name, ord.String(), report.PF(m.SwitchedCap),
				report.MW(m.Power.Total()), fmt.Sprintf("%d", res.Stats.Downgrades),
				fmt.Sprintf("%d", m.SlewViol), report.Ps(m.Skew))
		}
	}
	return tb.Render(o.Out)
}

// A2RepairAblation isolates the integrated skew repair: without it the
// optimizer's residual perturbation stays in the skew number; with it the
// bound is met for a small wire premium.
func A2RepairAblation(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	spec := figureSpec(o)
	built, err := build(f, spec)
	if err != nil {
		return err
	}
	tb := report.NewTable("A2: skew-repair ablation ("+spec.Name+")",
		"repair", "skew (ps)", "bound met", "repair wire (µm)", "power (mW)", "cap (pF)")
	for _, disable := range []bool{true, false} {
		res, err := o.flow(smartndr.FlowConfig{Opt: core.Config{DisableRepair: disable}}).Apply(built, smartndr.SchemeSmart)
		if err != nil {
			return err
		}
		m := res.Metrics
		name := "on"
		if disable {
			name = "off"
		}
		tb.AddRow(name, report.Ps(m.Skew),
			fmt.Sprintf("%v", m.Skew <= f.Config().Tech.MaxSkew),
			report.Um(res.Stats.RepairWire), report.MW(m.Power.Total()),
			report.PF(m.SwitchedCap))
	}
	return tb.Render(o.Out)
}

// A3ModelAblation isolates the construction models: the exact repeated-
// line top-tree model vs the amortized linear rate, and the STA-feedback
// trim loop on vs off. The expected shape: disabling either inflates the
// construction skew the downstream flow must absorb.
func A3ModelAblation(o Options) error {
	spec := figureSpec(o)
	bm, err := smartndr.GenerateBenchmark(spec)
	if err != nil {
		return err
	}
	tb := report.NewTable("A3: construction-model ablation ("+spec.Name+")",
		"top model", "trim loop", "construction skew (ps)", "worst slew (ps)", "WL (mm)")
	for _, opt := range []cts.Options{
		{},
		{LinearTopModel: true},
		{NoCalibration: true},
		{LinearTopModel: true, NoCalibration: true},
	} {
		f := o.flow(smartndr.FlowConfig{CTS: opt})
		built, err := f.Build(bm.Sinks, bm.Src)
		if err != nil {
			return err
		}
		an, err := f.Timing(built.Tree)
		if err != nil {
			return err
		}
		model := "repeated"
		if opt.LinearTopModel {
			model = "linear"
		}
		trim := "on"
		if opt.NoCalibration {
			trim = "off"
		}
		w, _ := an.WorstSlew()
		tb.AddRow(model, trim, report.Ps(an.Skew()), report.Ps(w),
			fmt.Sprintf("%.2f", built.Tree.TotalWirelength()/1000))
	}
	return tb.Render(o.Out)
}
