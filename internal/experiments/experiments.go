// Package experiments regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md §3 — the original paper text was
// unavailable, so the suite follows the conventions of the CTS-power
// literature). Each experiment renders an aligned text table to the given
// writer and, when a data directory is set, dumps the plotted series as
// CSV. The same entry points back the root-level testing.B benchmarks.
//
// Every experiment drives the public facade (smartndr.Flow): it builds
// with Flow.Build, applies schemes with Flow.Apply or ApplyTopK, with
// ablation knobs set on FlowConfig.Opt and FlowConfig.CTS, and analyses
// with the flow's Timing, Evaluate, EvaluateCorners, AuditEM, EnforceEM
// and MonteCarlo, so the tables run the code path smartndr and smartndrd
// run.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"smartndr"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/rctree"
	"smartndr/internal/report"
	"smartndr/internal/sio"
	"smartndr/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// DataDir, when non-empty, receives CSV series for the figures.
	DataDir string
	// Quick trims workload sizes so the full suite runs in seconds —
	// used by tests and the root benchmarks; the shapes are unchanged.
	Quick bool
	// Tracer, when non-nil, records a span per experiment plus the
	// synthesis/optimization phases inside each. Nil disables tracing.
	Tracer *obs.Tracer
	// Workers bounds the parallel sections inside experiments (per-scheme,
	// per-corner, and per-K evaluation, plus Monte Carlo trials): 0 uses
	// GOMAXPROCS, 1 forces serial execution. Table contents and row order
	// are identical for every value — parallel runs collect rows into
	// index-addressed slices before rendering. Additionally, Workers > 1
	// lets All run independent experiments concurrently.
	Workers int
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) error
}

// Registry lists all experiments in presentation order.
func Registry() []Runner {
	return []Runner{
		{"t1", "T1: NDR rule-class characterization", T1RuleCharacterization},
		{"t2", "T2: main per-benchmark comparison", T2MainComparison},
		{"t3", "T3: runtime scaling", T3RuntimeScaling},
		{"f1", "F1: power vs slew-constraint sweep", F1SlewSweep},
		{"f2", "F2: NDR usage by stage depth", F2DepthProfile},
		{"f3", "F3: skew under process variation", F3Variation},
		{"f4", "F4: power/robustness vs NDR fraction (TopK sweep)", F4TopKSweep},
		{"a1", "A1: candidate-ordering ablation", A1OrderAblation},
		{"a2", "A2: skew-repair ablation", A2RepairAblation},
		{"a3", "A3: construction-model ablation", A3ModelAblation},
		{"t4", "T4: three-corner signoff", T4MultiCorner},
		{"t5", "T5: electromigration audit", T5ElectromigrationAudit},
		{"a4", "A4: greedy vs exhaustive optimal", A4OptimalityGap},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Runner, error) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown id %q", id)
}

// All runs the full suite. With Workers > 1, independent experiments run
// concurrently: each renders into its own buffer and the buffers are
// flushed in registry order, so stdout is identical to a serial run (up
// to measured wall-clock values in T3). Experiments are independent by
// construction — each builds its own trees, and their flows share only
// the read-only default library.
func All(o Options) error {
	reg := Registry()
	if o.Workers <= 1 {
		for _, r := range reg {
			if err := RunOne(r, o); err != nil {
				return fmt.Errorf("%s: %w", r.ID, err)
			}
			fmt.Fprintln(o.Out)
		}
		return nil
	}
	bufs := make([]bytes.Buffer, len(reg))
	errs := make([]error, len(reg))
	// Errors are collected per experiment rather than cancelling the
	// fan-out, so the output prefix before a failure matches serial runs.
	_ = o.fanOut(len(reg), func(i int, oi Options) error {
		oi.Out = &bufs[i]
		errs[i] = RunOne(reg[i], oi)
		return nil
	})
	for i, r := range reg {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", r.ID, errs[i])
		}
		if _, err := bufs[i].WriteTo(o.Out); err != nil {
			return err
		}
		fmt.Fprintln(o.Out)
	}
	return nil
}

// RunOne runs one experiment under an "exp.<id>" span so the
// timing table attributes wall time per experiment.
func RunOne(r Runner, o Options) error {
	sp := o.Tracer.Start("exp."+r.ID, obs.S("title", r.Title))
	defer sp.End()
	err := r.Run(o)
	if err != nil {
		sp.Set("error", err.Error())
	}
	return err
}

// fanOut runs fn(i, oi) for every i < n on par.Workers(o.Workers)
// goroutines, where oi is o on a scoped view of its tracer. The view
// starts from the caller's open spans, so each call's spans nest under
// the running experiment and never under another call's. Callers land
// results in index-addressed slots, which keeps every table identical at
// any worker count.
func (o Options) fanOut(n int, fn func(i int, oi Options) error) error {
	//lint:allow ctxflow offline batch CLI with no cancellation semantics; a cancelled fan-out would break the bit-identical-output contract
	return par.ForEach(context.Background(), par.Workers(o.Workers), n, func(i int) error {
		oi := o
		oi.Tracer = o.Tracer.Scoped()
		return fn(i, oi)
	})
}

// flow returns the facade flow an experiment drives: the 45 nm-class
// defaults with cfg's knobs, on the run's tracer and workers.
func (o Options) flow(cfg smartndr.FlowConfig) *smartndr.Flow {
	cfg.Tracer, cfg.Workers = o.Tracer, o.Workers
	return smartndr.NewFlow(&cfg)
}

// build generates the benchmark and synthesizes its blanket-rule tree.
func build(f *smartndr.Flow, spec workload.Spec) (*smartndr.Built, error) {
	bm, err := smartndr.GenerateBenchmark(spec)
	if err != nil {
		return nil, err
	}
	return f.Build(bm.Sinks, bm.Src)
}

// label is a scheme's row label in the tables: its short name.
func label(s smartndr.Scheme) string { return strings.TrimSuffix(s.String(), "-ndr") }

// timedMS returns fn's wall-clock time in milliseconds. T3's subject *is*
// wall-clock runtime; its rows are the one table exempt from the
// bit-identical-output contract (docs/performance.md).
func timedMS(fn func() error) (float64, error) {
	t0 := time.Now() //lint:allow wallclock — runtime scaling is what T3 measures
	err := fn()
	return time.Since(t0).Seconds() * 1e3, err //lint:allow wallclock — runtime scaling is what T3 measures
}

// suite returns the benchmark list for the options.
func suite(o Options) []workload.Spec {
	specs := workload.CNSSuite()
	if o.Quick {
		quick := specs[:2]
		out := make([]workload.Spec, len(quick))
		copy(out, quick)
		for i := range out {
			out[i].Sinks /= 4
		}
		return out
	}
	return specs
}

// T1RuleCharacterization tabulates each rule class's per-micron parasitics
// and the delay/slew of a canonical 1 mm repeater-free stage — the table
// that motivates everything else: NDRs buy RC speed with capacitance.
func T1RuleCharacterization(o Options) error {
	cfg := o.flow(smartndr.FlowConfig{}).Config()
	te, drv := cfg.Tech, cfg.Library.Strongest()
	tb := report.NewTable(
		"T1: rule-class characterization (tech45, 1 mm stage driven by "+drv.Name+")",
		"rule", "r (Ω/µm)", "c (fF/µm)", "pitch (µm)", "elmore (ps)", "slew (ps)", "cap vs 1W1S")
	defC := te.Layer.CPerUm(te.Rule(te.DefaultRule))
	const stage = 1000.0 // µm
	for i := 0; i < te.NumRules(); i++ {
		rule := te.Rule(i)
		r := te.Layer.RPerUm(rule)
		c := te.Layer.CPerUm(rule)
		elm := r * stage * (c*stage/2 + 2e-15)
		outSlew := drv.OutSlewAt(50e-12, c*stage+2e-15)
		slew := math.Hypot(outSlew, rctree.Ln9*elm)
		tb.AddRow(rule.Name,
			fmt.Sprintf("%.2f", r),
			fmt.Sprintf("%.3f", c*1e15),
			fmt.Sprintf("%.3f", te.Layer.TrackPitch(rule)),
			report.Ps(elm),
			report.Ps(slew),
			report.Pct(c/defC-1),
		)
	}
	return tb.Render(o.Out)
}

// T2MainComparison is the headline table: per benchmark, the four schemes'
// clock power, wirelength, buffers, worst slew, and skew. The shape to
// check: Smart ≤ Blanket power with zero violations; AllDefault cheapest
// but violating; TopK in between.
func T2MainComparison(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	te := f.Config().Tech
	tb := report.NewTable(
		"T2: scheme comparison (tech45; slew ≤ "+report.Ps(te.MaxSlew)+" ps, skew ≤ "+report.Ps(te.MaxSkew)+" ps)",
		"bench", "sinks", "scheme", "power (mW)", "Δpower", "cap (pF)", "WL (mm)", "bufs",
		"slew (ps)", "viol", "skew (ps)", "NDR len")
	schemes := []smartndr.Scheme{smartndr.SchemeAllDefault, smartndr.SchemeBlanket, smartndr.SchemeTrunk, smartndr.SchemeSmart}
	// powers[si] is scheme si's power per benchmark, the CSV series.
	powers := make([][]float64, len(schemes))
	var benches []float64
	for bi, spec := range suite(o) {
		built, err := build(f, spec)
		if err != nil {
			return err
		}
		// Schemes apply concurrently, each on the flow's private clone;
		// metrics land in a slot per scheme so the rendered rows keep
		// presentation order.
		ms := make([]smartndr.Metrics, len(schemes))
		err = o.fanOut(len(schemes), func(si int, o Options) error {
			res, err := o.flow(smartndr.FlowConfig{}).Apply(built, schemes[si])
			if err != nil {
				return err
			}
			ms[si] = res.Metrics
			return nil
		})
		if err != nil {
			return err
		}
		var blanketPower float64
		for si, s := range schemes {
			m := ms[si]
			p := m.Power.Total()
			dp := "—"
			if s == smartndr.SchemeBlanket {
				blanketPower = p
			} else if blanketPower > 0 {
				dp = report.Pct(p/blanketPower - 1)
			}
			tb.AddRow(spec.Name, fmt.Sprintf("%d", spec.Sinks), label(s),
				report.MW(p), dp, report.PF(m.SwitchedCap),
				fmt.Sprintf("%.2f", m.Wirelength/1000),
				fmt.Sprintf("%d", m.Buffers),
				report.Ps(m.WorstSlew), fmt.Sprintf("%d", m.SlewViol),
				report.Ps(m.Skew),
				report.Pct(m.NDRFraction),
			)
			powers[si] = append(powers[si], p)
		}
		benches = append(benches, float64(bi+1))
	}
	if o.DataDir != "" {
		if err := sio.WriteCSVFile(o.DataDir+"/t2_power.csv",
			sio.Series{Name: "bench", Values: benches},
			sio.Series{Name: "all_default_w", Values: powers[0]},
			sio.Series{Name: "blanket_w", Values: powers[1]},
			sio.Series{Name: "trunk_w", Values: powers[2]},
			sio.Series{Name: "smart_w", Values: powers[3]},
		); err != nil {
			return err
		}
	}
	return tb.Render(o.Out)
}

// T3RuntimeScaling measures the wall-clock of synthesis (Flow.Build) and
// of the smart scheme (Flow.Apply: clone, optimize, evaluate) against sink
// count.
func T3RuntimeScaling(o Options) error {
	f := o.flow(smartndr.FlowConfig{})
	sizes := []int{500, 1000, 2000, 4000, 8000, 16000}
	if o.Quick {
		sizes = []int{250, 500, 1000}
	}
	tb := report.NewTable("T3: runtime scaling (tech45, uniform sinks)",
		"sinks", "nodes", "build (ms)", "optimize (ms)", "total (ms)")
	var xs, build0, opt0 []float64
	for _, n := range sizes {
		spec := workload.Spec{
			Name: fmt.Sprintf("scale%d", n), Dist: workload.Uniform, Sinks: n,
			DieX: 3000 * math.Sqrt(float64(n)/1000), DieY: 2500 * math.Sqrt(float64(n)/1000),
			CapMin: 1e-15, CapMax: 4e-15, Seed: int64(n),
		}
		bm, err := smartndr.GenerateBenchmark(spec)
		if err != nil {
			return err
		}
		var built *smartndr.Built
		buildMS, err := timedMS(func() (err error) {
			built, err = f.Build(bm.Sinks, bm.Src)
			return err
		})
		if err != nil {
			return err
		}
		optMS, err := timedMS(func() error {
			_, err := f.Apply(built, smartndr.SchemeSmart)
			return err
		})
		if err != nil {
			return err
		}
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(built.Tree.Nodes)),
			fmt.Sprintf("%.0f", buildMS), fmt.Sprintf("%.0f", optMS),
			fmt.Sprintf("%.0f", buildMS+optMS))
		xs = append(xs, float64(n))
		build0 = append(build0, buildMS)
		opt0 = append(opt0, optMS)
	}
	if o.DataDir != "" {
		if err := sio.WriteCSVFile(o.DataDir+"/t3_runtime.csv",
			sio.Series{Name: "sinks", Values: xs},
			sio.Series{Name: "build_ms", Values: build0},
			sio.Series{Name: "optimize_ms", Values: opt0},
		); err != nil {
			return err
		}
	}
	return tb.Render(o.Out)
}

// workhorse benchmark for the figure experiments.
func figureSpec(o Options) workload.Spec {
	spec, _ := workload.ByName("cns03")
	if o.Quick {
		spec.Sinks = 500
	}
	return spec
}
