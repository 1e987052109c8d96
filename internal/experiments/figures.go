package experiments

import (
	"fmt"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/report"
	"smartndr/internal/sio"
	"smartndr/internal/variation"
)

// F1SlewSweep sweeps the slew constraint and reports smart-NDR power
// against the all-default and blanket anchors. The expected shape: under a
// tight constraint smart approaches blanket (everything needs the NDR);
// under a loose one it approaches all-default.
func F1SlewSweep(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	spec := figureSpec(o)
	built, err := build(f, spec)
	if err != nil {
		return err
	}
	def, err := f.Apply(built, smartndr.SchemeAllDefault)
	if err != nil {
		return err
	}
	blanket, err := f.Apply(built, smartndr.SchemeBlanket)
	if err != nil {
		return err
	}
	blanketPower := blanket.Metrics.Power.Total()
	tb := report.NewTable(
		fmt.Sprintf("F1: smart-NDR power vs slew constraint (%s; blanket %.3f mW, all-default %.3f mW)",
			spec.Name, blanketPower*1e3, def.Metrics.Power.Total()*1e3),
		"slew limit (ps)", "power (mW)", "vs blanket", "NDR len", "downgrades", "viol")
	limits := []float64{70e-12, 80e-12, 90e-12, 100e-12, 120e-12, 150e-12, 180e-12}
	if o.Quick {
		limits = []float64{80e-12, 100e-12, 150e-12}
	}
	var xs, ys []float64
	for _, lim := range limits {
		res, err := o.flow(smartndr.FlowConfig{Opt: core.Config{MaxSlew: lim}}).Apply(built, smartndr.SchemeSmart)
		if err != nil {
			return err
		}
		m := res.Metrics
		// Violations are judged against the swept limit here.
		viol := 0
		if m.WorstSlew > lim {
			viol = m.SlewViol
		}
		tb.AddRow(report.Ps(lim), report.MW(m.Power.Total()),
			report.Pct(m.Power.Total()/blanketPower-1),
			report.Pct(m.NDRFraction),
			fmt.Sprintf("%d", res.Stats.Downgrades),
			fmt.Sprintf("%d", viol))
		xs = append(xs, lim*1e12)
		ys = append(ys, m.Power.Total())
	}
	if o.DataDir != "" {
		if err := sio.WriteCSVFile(o.DataDir+"/f1_slew_sweep.csv",
			sio.Series{Name: "slew_limit_ps", Values: xs},
			sio.Series{Name: "smart_power_w", Values: ys},
		); err != nil {
			return err
		}
	}
	return tb.Render(o.Out)
}

// F2DepthProfile reports, per buffer-stage level, how much wire the smart
// assignment keeps on each rule class. The expected shape: NDR
// concentrates near the root (long, slew-critical repeated lines); leaf
// levels run on cheap rules.
func F2DepthProfile(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	te := f.Config().Tech
	spec := figureSpec(o)
	built, err := build(f, spec)
	if err != nil {
		return err
	}
	res, err := f.Apply(built, smartndr.SchemeSmart)
	if err != nil {
		return err
	}
	tree := res.Tree
	levels := core.StageLevels(tree)
	maxLv := 0
	for _, lv := range levels {
		if lv > maxLv {
			maxLv = lv
		}
	}
	// wire length per (level, rule)
	lenByLvRule := make([][]float64, maxLv+1)
	for i := range lenByLvRule {
		lenByLvRule[i] = make([]float64, te.NumRules())
	}
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.Parent < 0 {
			continue
		}
		lenByLvRule[levels[i]][n.Rule] += n.EdgeLen
	}
	headers := []string{"level", "total (mm)"}
	for i := 0; i < te.NumRules(); i++ {
		headers = append(headers, te.Rule(i).Name)
	}
	headers = append(headers, "heavy-NDR share")
	tb := report.NewTable(
		fmt.Sprintf("F2: wirelength by stage level and rule after smart assignment (%s)", spec.Name),
		headers...)
	var xs, shares []float64
	for lv := 0; lv <= maxLv; lv++ {
		var total, heavy float64
		for ri, l := range lenByLvRule[lv] {
			total += l
			rule := te.Rule(ri)
			if rule.WMult >= 2 { // wide classes: 2W1S, 2W2S, 3W3S
				heavy += l
			}
		}
		if total == 0 {
			continue
		}
		row := []string{fmt.Sprintf("%d", lv), fmt.Sprintf("%.2f", total/1000)}
		for _, l := range lenByLvRule[lv] {
			row = append(row, report.Pct(l/total))
		}
		row = append(row, report.Pct(heavy/total))
		tb.AddRow(row...)
		xs = append(xs, float64(lv))
		shares = append(shares, heavy/total)
	}
	if o.DataDir != "" {
		if err := sio.WriteCSVFile(o.DataDir+"/f2_depth_profile.csv",
			sio.Series{Name: "level", Values: xs},
			sio.Series{Name: "heavy_ndr_share", Values: shares},
		); err != nil {
			return err
		}
	}
	return tb.Render(o.Out)
}

// F3Variation compares skew distributions under process variation across
// the schemes. Expected shape: σ(all-default) ≫ σ(smart) ≈ σ(blanket) —
// smart sheds capacitance without giving up the NDR's robustness where it
// matters.
func F3Variation(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	spec := figureSpec(o)
	built, err := build(f, spec)
	if err != nil {
		return err
	}
	p := variation.Defaults(99)
	if o.Quick {
		p.Samples = 60
	}
	tb := report.NewTable(
		fmt.Sprintf("F3: skew under process variation (%s, %d samples, CD σ %.0f nm)",
			spec.Name, p.Samples, p.WidthSigma*1e3),
		"scheme", "nominal (ps)", "mean (ps)", "σ (ps)", "P95 (ps)", "max (ps)", "yield@bound")
	schemes := []smartndr.Scheme{smartndr.SchemeAllDefault, smartndr.SchemeTrunk, smartndr.SchemeSmart, smartndr.SchemeBlanket}
	// Each scheme's assignment + Monte Carlo runs concurrently; rows are
	// slot-addressed so the table order never depends on scheduling, and
	// the Monte Carlo substream determinism makes the numbers themselves
	// worker-count-independent.
	type f3Out struct {
		nominal float64
		st      *smartndr.VariationStats
	}
	outs := make([]f3Out, len(schemes))
	err = o.fanOut(len(schemes), func(si int, o Options) error {
		f := o.flow(smartndr.FlowConfig{})
		res, err := f.Apply(built, schemes[si])
		if err != nil {
			return err
		}
		st, err := f.MonteCarlo(res.Tree, p)
		if err != nil {
			return err
		}
		outs[si] = f3Out{nominal: res.Metrics.Skew, st: st}
		return nil
	})
	if err != nil {
		return err
	}
	maxSkew := f.Config().Tech.MaxSkew
	var sigmas []float64
	for si, s := range schemes {
		st := outs[si].st
		tb.AddRow(label(s), report.Ps(outs[si].nominal), report.Ps(st.MeanSkew), report.Ps(st.StdSkew),
			report.Ps(st.P95Skew), report.Ps(st.MaxSkew),
			fmt.Sprintf("%.1f%%", st.YieldAt(2*maxSkew)*100))
		sigmas = append(sigmas, st.StdSkew)
	}
	if o.DataDir != "" {
		if err := sio.WriteCSVFile(o.DataDir+"/f3_variation.csv",
			sio.Series{Name: "scheme_idx", Values: []float64{0, 1, 2, 3}},
			sio.Series{Name: "skew_sigma_s", Values: sigmas},
		); err != nil {
			return err
		}
	}
	return tb.Render(o.Out)
}

// F4TopKSweep traces the power/robustness tradeoff of the TopK heuristic
// across K and places the smart point against it. Expected shape: smart
// sits below the TopK curve (less power at comparable robustness).
func F4TopKSweep(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	spec := figureSpec(o)
	built, err := build(f, spec)
	if err != nil {
		return err
	}
	maxK := f.MaxTopK(built)
	tb := report.NewTable(
		fmt.Sprintf("F4: TopK sweep vs smart point (%s)", spec.Name),
		"assignment", "power (mW)", "NDR len", "worst slew (ps)", "viol", "skew (ps)")
	// Items 0..maxK are the K sweep; the last slot is the smart point.
	ms := make([]smartndr.Metrics, maxK+2)
	err = o.fanOut(len(ms), func(k int, o Options) error {
		f := o.flow(smartndr.FlowConfig{})
		var res *smartndr.Result
		var err error
		if k <= maxK {
			res, err = f.ApplyTopK(built, k)
		} else {
			res, err = f.Apply(built, smartndr.SchemeSmart)
		}
		if err != nil {
			return err
		}
		ms[k] = res.Metrics
		return nil
	})
	if err != nil {
		return err
	}
	var ks, powers []float64
	for k := 0; k <= maxK; k++ {
		m := ms[k]
		tb.AddRow(fmt.Sprintf("top-%d", k), report.MW(m.Power.Total()),
			report.Pct(m.NDRFraction), report.Ps(m.WorstSlew),
			fmt.Sprintf("%d", m.SlewViol), report.Ps(m.Skew))
		ks = append(ks, float64(k))
		powers = append(powers, m.Power.Total())
	}
	m := ms[maxK+1]
	tb.AddRow("smart", report.MW(m.Power.Total()), report.Pct(m.NDRFraction),
		report.Ps(m.WorstSlew), fmt.Sprintf("%d", m.SlewViol), report.Ps(m.Skew))
	if o.DataDir != "" {
		if err := sio.WriteCSVFile(o.DataDir+"/f4_topk.csv",
			sio.Series{Name: "k", Values: ks},
			sio.Series{Name: "power_w", Values: powers},
		); err != nil {
			return err
		}
	}
	return tb.Render(o.Out)
}
