// Command experiments regenerates the evaluation tables and figures (see
// DESIGN.md §3 and EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-exp all|t1|t2|t3|f1|f2|f3|f4|a1|a2|a3|t4|t5|a4] [-data DIR] [-quick] [-workers N]
//
// Tables render to stdout; with -data, the figure series are also written
// as CSV files into DIR. -list prints the ids with their titles. -timing prints a per-experiment phase breakdown
// to stderr, -trace streams every span as a JSONL event, and -pprof
// serves net/http/pprof for live profiling (see docs/observability.md).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"smartndr/internal/experiments"
	"smartndr/internal/obs"
	"smartndr/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	data := flag.String("data", "", "directory for CSV series (optional)")
	quick := flag.Bool("quick", false, "reduced workload sizes")
	workers := flag.Int("workers", 0, "parallel workers inside experiments (0 = all cores); >1 also runs independent experiments concurrently — tables are identical at any count")
	list := flag.Bool("list", false, "list experiments and exit")
	traceFile := flag.String("trace", "", "write span events as JSON lines to this file")
	timing := flag.Bool("timing", false, "print a phase-timing breakdown to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}
	if *data != "" {
		if err := os.MkdirAll(*data, 0o755); err != nil {
			fatal(err)
		}
	}
	startPprof(*pprofAddr)
	tracer, collector, closeTrace, err := setupTracing(*traceFile, *timing)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := closeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: trace:", err)
		}
		if collector != nil {
			tb := report.TimingTable("phase timing", collector.Events())
			fmt.Fprintln(os.Stderr)
			if err := tb.Render(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: timing:", err)
			}
		}
	}()

	opt := experiments.Options{Out: os.Stdout, DataDir: *data, Quick: *quick, Tracer: tracer, Workers: *workers}
	if *exp == "all" {
		if err := experiments.All(opt); err != nil {
			fatal(err)
		}
		return
	}
	r, err := experiments.ByID(*exp)
	if err != nil {
		fatal(err)
	}
	if err := experiments.RunOne(r, opt); err != nil {
		fatal(err)
	}
}

// setupTracing builds the tracer for the requested outputs: a JSONL
// file sink for -trace, an in-memory collector for -timing, or both.
// The returned closer flushes and closes whatever was opened.
func setupTracing(traceFile string, timing bool) (*obs.Tracer, *obs.Collector, func() error, error) {
	var sinks []obs.Sink
	var f *os.File
	if traceFile != "" {
		var err error
		f, err = os.Create(traceFile)
		if err != nil {
			return nil, nil, nil, err
		}
		sinks = append(sinks, obs.NewJSONL(f))
	}
	var col *obs.Collector
	if timing {
		col = obs.NewCollector()
		sinks = append(sinks, col)
	}
	tracer := obs.New(obs.Multi(sinks...))
	closer := func() error {
		err := tracer.Close()
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return tracer, col, closer, nil
}

// startPprof serves net/http/pprof on addr when non-empty.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
