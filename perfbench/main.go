// Command perfbench is smartndr's end-to-end benchmark. It drives the real
// cmd/smartndrd over loopback HTTP with three seeded closed-loop
// workloads (cold-flow, interactive, hier-100k), checks every output,
// and prints the end-to-end metrics; with -trace 1 it also replays the
// same inputs in-process and prints per-layer metrics. See README.md.
//
// Run it through run.sh, which builds the daemon and this program first:
//
//	bash perfbench/run.sh --workload cold-flow --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload interactive --steady 10 --save a.json
//	bash perfbench/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "cold-flow | interactive | hier-100k")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: replay in-process and report per-layer metrics")
	daemonBin := fs.String("daemon", "", "smartndrd binary (run.sh builds it)")
	out := fs.String("out", ".bench_build", "directory for span files")
	steady := fs.Int("steady", 0, "run the workload this many times, seeds seed, seed+1, …, and report each metric's spread")
	save := fs.String("save", "", "with -steady: write the runs' results to this file")
	compare := fs.Bool("compare", false, "compare two saved -steady sets: perfbench -compare a.json b.json")
	writeQoR := fs.String("write-qor", "", "record the run's QoR digests into this file (default seed only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two saved sets")
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout)
	}
	def, err := loadByName(*name)
	if err != nil {
		return err
	}
	if *daemonBin == "" {
		return errors.New("-daemon is required")
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	if *writeQoR != "" && *seed != defaultSeed {
		return fmt.Errorf("-write-qor records the default seed %d only", defaultSeed)
	}
	o := runOpts{daemon: *daemonBin, out: *out, seed: *seed, seconds: *seconds, writeQoR: *writeQoR}
	if *steady > 0 {
		return steadyReport(o, def, *trace, *steady, *save, stdout)
	}
	ctx := context.Background()
	var res *result
	if *trace == 1 {
		if res, err = runTraced(ctx, o, def, stdout); err != nil {
			return err
		}
	} else {
		e2e, err := runE2E(ctx, o, def)
		if err != nil {
			return err
		}
		m := e2e.endToEnd()
		e2e.report(stdout, m)
		res = &result{
			Correct:   e2e.ph.failed == 0,
			Attempted: e2e.ph.attempted,
			Failed:    e2e.ph.failed,
			Metrics:   m,
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}
