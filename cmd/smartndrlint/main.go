// Command smartndrlint runs the repo's static-analysis suite
// (internal/analysis) over the given packages: ten analyzers that
// enforce the determinism, tracing, telemetry, units, and
// resource-hygiene contracts — maporder, seededrand, wallclock,
// spanhygiene, floatorder, metricname, httpbody, errcmp, gateleak,
// ctxflow. It exits nonzero when any finding survives the //lint:
// annotations, so `make lint` and CI gate on a clean tree. See
// docs/static-analysis.md.
//
// Usage:
//
//	smartndrlint [-run analyzer,analyzer] [-list] [-json] [-time] [-budget 30s] [packages]
//
// Packages default to ./... relative to the current directory, which
// must be inside the module. -json emits machine-readable diagnostics
// (file/line/col/analyzer/message, deterministically sorted) for CI
// and editors; exit codes are the same as text mode. -time prints
// per-analyzer wall time to stderr, and -budget fails the run when the
// total (package load + all analyzers) exceeds the given duration —
// the guard CI uses to catch the `go list -e -deps -json` load path
// getting slow as the tree grows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smartndr/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("smartndrlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	list := fs.Bool("list", false, "print the analyzers and exit")
	subset := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	dir := fs.String("C", ".", "directory to resolve package patterns from")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	timings := fs.Bool("time", false, "print per-analyzer wall time to stderr")
	budget := fs.Duration("budget", 0, "fail if the whole run (load + analyzers) exceeds this duration (0 = no budget)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := analysis.ByName(*subset)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	loader := &analysis.Loader{Dir: *dir}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	loadTime := time.Since(start)

	// Analyzers run one at a time so each can be timed; they keep no
	// state between packages or runs, so the split costs nothing.
	// Diagnostics merge back into the canonical position-sorted order.
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		aStart := time.Now()
		ds, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})
		if err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
		if *timings {
			fmt.Fprintf(errw, "smartndrlint: %-12s %8.1fms\n", a.Name, float64(time.Since(aStart).Microseconds())/1000)
		}
		diags = append(diags, ds...)
	}
	analysis.SortDiagnostics(diags)
	total := time.Since(start)
	if *timings {
		fmt.Fprintf(errw, "smartndrlint: %-12s %8.1fms\n", "(load)", float64(loadTime.Microseconds())/1000)
		fmt.Fprintf(errw, "smartndrlint: %-12s %8.1fms\n", "(total)", float64(total.Microseconds())/1000)
	}

	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(r) {
				return r
			}
		}
		return name
	}
	if *asJSON {
		jds := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			jds = append(jds, jsonDiag{
				File:     rel(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jds); err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(out, "%s:%d:%d: %s (%s)\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	code := 0
	if len(diags) > 0 {
		fmt.Fprintf(errw, "smartndrlint: %d finding(s)\n", len(diags))
		code = 1
	}
	if *budget > 0 && total > *budget {
		fmt.Fprintf(errw, "smartndrlint: run took %s, over the %s budget\n", total.Round(time.Millisecond), *budget)
		code = 1
	}
	return code
}
