// Command smartndr runs the full flow on one benchmark: synthesize the
// clock tree, apply a rule-assignment scheme, and report the metrics.
//
// Usage:
//
//	smartndr -bench cns03 -scheme smart
//	smartndr -in my.json -scheme all -tech tech65
//	smartndr -bench cns01 -scheme smart -save tree.json
//	smartndr -bench cns05 -scheme smart -timing -trace run.jsonl
//
// With -scheme all, every scheme runs on the same synthesized tree and a
// comparison table is printed. -timing prints a phase-breakdown table to
// stderr, -trace streams every span as a JSONL event, and -pprof serves
// net/http/pprof for live profiling (see docs/observability.md).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"smartndr"
	"smartndr/internal/obs"
	"smartndr/internal/report"
	"smartndr/internal/sio"
	"smartndr/internal/tech"
	"smartndr/internal/viz"
	"smartndr/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "built-in benchmark name (cns01…cns08)")
	in := flag.String("in", "", "benchmark JSON produced by ctsgen")
	schemeName := flag.String("scheme", "all", "all, or one scheme: all-default|blanket|trunk|smart|top-k (or its -ndr name)")
	techName := flag.String("tech", "tech45", "technology: tech45|tech65")
	save := flag.String("save", "", "save the (last) scheme's tree as JSON")
	svg := flag.String("svg", "", "render the (last) scheme's tree as SVG")
	mc := flag.Bool("mc", false, "also run process-variation Monte Carlo")
	workers := flag.Int("workers", 0, "parallel workers for Monte Carlo trials (0 = all cores; results are identical at any count)")
	traceFile := flag.String("trace", "", "write span events as JSON lines to this file")
	timing := flag.Bool("timing", false, "print a phase-timing breakdown to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	startPprof(*pprofAddr)
	tracer, collector, closeTrace, err := obs.Setup(*traceFile, *timing)
	if err != nil {
		fatal(err)
	}

	bm, err := loadBench(*bench, *in)
	if err != nil {
		fatal(err)
	}
	te, err := tech.ByName(*techName)
	if err != nil {
		fatal(err)
	}
	flow := smartndr.NewFlow(&smartndr.FlowConfig{
		Tech: te, Library: smartndr.DefaultLibraryFor(te), Tracer: tracer, Workers: *workers,
	})
	root := tracer.Start("smartndr", obs.S("bench", bm.Spec.Name))
	// Registered first so it runs after the deferred stats/MC prints:
	// close the root span, flush the trace, and render the phase table.
	defer func() {
		root.End()
		if err := closeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "smartndr: trace:", err)
		}
		if collector != nil {
			tb := report.TimingTable("phase timing ("+bm.Spec.Name+")", collector.Events())
			fmt.Fprintln(os.Stderr)
			if err := tb.Render(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "smartndr: timing:", err)
			}
		}
	}()

	fmt.Printf("benchmark %s: %d sinks, %.1f×%.1f mm die (%s)\n",
		bm.Spec.Name, len(bm.Sinks), bm.Spec.DieX/1000, bm.Spec.DieY/1000, bm.Spec.Dist)
	built, err := flow.Build(bm.Sinks, bm.Src)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("synthesized: %d nodes, %d buffers, %d leaf clusters\n\n",
		len(built.Tree.Nodes), built.Buffers, built.NumClusters)

	schemes, err := pickSchemes(*schemeName)
	if err != nil {
		fatal(err)
	}
	tb := report.NewTable("results ("+te.Name+")",
		"scheme", "power (mW)", "cap (pF)", "WL (mm)", "worst slew (ps)", "viol", "skew (ps)", "NDR len")
	var last *smartndr.Result
	for _, s := range schemes {
		r, err := flow.Apply(built, s)
		if err != nil {
			fatal(err)
		}
		m := r.Metrics
		tb.AddRow(s.String(), report.MW(m.Power.Total()), report.PF(m.SwitchedCap),
			fmt.Sprintf("%.2f", m.Wirelength/1000), report.Ps(m.WorstSlew),
			fmt.Sprintf("%d", m.SlewViol), report.Ps(m.Skew), report.Pct(m.NDRFraction))
		last = r
		if r.Stats != nil {
			defer func(st *smartndr.OptStats) {
				fmt.Printf("\nsmart-ndr: %d downgrades, %d upgrades, %.0f µm repair wire, %d passes\n",
					st.Downgrades, st.Upgrades, st.RepairWire, st.Passes)
			}(r.Stats)
		}
		if *mc {
			stats, err := flow.MonteCarlo(r.Tree, smartndr.VariationParams{
				WidthSigma: 0.004, BufSigma: 0.03, SpatialFrac: 0.6, Samples: 300, Seed: 7,
			})
			if err != nil {
				fatal(err)
			}
			defer func(name string, st *smartndr.VariationStats) {
				fmt.Printf("%s under variation: skew mean %s ps, σ %s ps, P95 %s ps\n",
					name, report.Ps(st.MeanSkew), report.Ps(st.StdSkew), report.Ps(st.P95Skew))
			}(s.String(), stats)
		}
	}
	if err := tb.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if *save != "" && last != nil {
		if err := sio.SaveTree(*save, last.Tree); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %s tree to %s\n", last.Scheme, *save)
	}
	if *svg != "" && last != nil {
		title := fmt.Sprintf("%s / %s (%s)", bm.Spec.Name, last.Scheme, te.Name)
		if err := viz.WriteSVGFile(*svg, last.Tree, te, flow.Config().Library, viz.NewOptions(title)); err != nil {
			fatal(err)
		}
		fmt.Printf("rendered %s tree to %s\n", last.Scheme, *svg)
	}
}

// startPprof serves net/http/pprof on addr when non-empty.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "smartndr: pprof:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
}

func loadBench(bench, in string) (*workload.Benchmark, error) {
	switch {
	case bench != "" && in != "":
		return nil, fmt.Errorf("use either -bench or -in, not both")
	case bench != "":
		return smartndr.Benchmark(bench)
	case in != "":
		if strings.HasSuffix(in, ".def") {
			return sio.ReadDEFLiteFile(in)
		}
		return sio.LoadBenchmark(in)
	default:
		return smartndr.Benchmark("cns01")
	}
}

// pickSchemes resolves -scheme: "all" compares the four schemes on one
// tree; any other value is one scheme name as smartndr.ParseScheme reads it.
func pickSchemes(name string) ([]smartndr.Scheme, error) {
	if name == "all" {
		return []smartndr.Scheme{
			smartndr.SchemeAllDefault, smartndr.SchemeBlanket,
			smartndr.SchemeTrunk, smartndr.SchemeSmart,
		}, nil
	}
	s, err := smartndr.ParseScheme(name)
	if err != nil {
		return nil, err
	}
	return []smartndr.Scheme{s}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartndr:", err)
	os.Exit(1)
}
