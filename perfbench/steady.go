package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadySet is a saved series of runs of one workload.
type steadySet struct {
	Workload string      `json:"workload"`
	Seconds  int         `json:"seconds"`
	Trace    int         `json:"trace"`
	Runs     []steadyRun `json:"runs"`
}

type steadyRun struct {
	Seed   int64   `json:"seed"`
	Result *result `json:"result"`
}

// steadyReport runs the workload n times, each as a fresh process on its
// own seed exactly as a single run would, and prints every metric's
// median, quartiles and quartile spread over the median.
func steadyReport(o runOpts, def loadDef, trace, n int, save string, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := steadySet{Workload: def.name, Seconds: o.seconds, Trace: trace}
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self, "-daemon", o.daemon, "-out", o.out, "-workload", def.name,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace))
		cmd.SysProcAttr = dieWithParent()
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		res, err := lastJSON(stdout.String())
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		set.Runs = append(set.Runs, steadyRun{seed, res})
		fmt.Fprintf(w, "run %2d seed %-4d correct=%v attempted=%d failed=%d", i+1, seed, res.Correct, res.Attempted, res.Failed)
		for _, k := range sortedKeys(res.Metrics) {
			if trace == 0 {
				fmt.Fprintf(w, " %s=%.4g", k, res.Metrics[k].Value)
			}
		}
		// The host's CPU steal over the timed phase tells a slow machine
		// from a slow program.
		for _, line := range strings.Split(stdout.String(), "\n") {
			switch f := strings.Fields(line); {
			case len(f) > 2 && f[0] == "cpu" && f[1] == "steal":
				fmt.Fprintf(w, " steal=%s", f[2])
			case len(f) > 5 && f[1] == "earlier" && f[2] == "timed":
				fmt.Fprintf(w, " remeasured-after-steal=%s", f[5])
			}
		}
		fmt.Fprintln(w)
	}
	printSpread(w, &set)
	if save == "" {
		return nil
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(save, append(b, '\n'), 0o644)
}

func (s *steadySet) values(metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (s *steadySet) metricNames() []string {
	names := map[string]bool{}
	for _, r := range s.Runs {
		for k := range r.Result.Metrics {
			names[k] = true
		}
	}
	return sortedKeys(names)
}

func printSpread(w io.Writer, s *steadySet) {
	fmt.Fprintf(w, "%s: %d runs of %d s\n", s.Workload, len(s.Runs), s.Seconds)
	fmt.Fprintf(w, "  %-26s %12s %12s %12s %8s\n", "metric", "Q1", "median", "Q3", "spread")
	for _, k := range s.metricNames() {
		q1, q2, q3 := quartiles(s.values(k))
		fmt.Fprintf(w, "  %-26s %12.5g %12.5g %12.5g %7.1f%%\n", k, q1, q2, q3, 100*spread(s.values(k)))
	}
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets compares two saved sets of the same workload the way the
// benchmark's bounds are applied: each metric's spread in either set,
// and the second median against the first.
func compareSets(a, b string, w io.Writer) error {
	var sets [2]steadySet
	for i, path := range []string{a, b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		printSpread(w, &sets[i])
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
			lower[m.Name] = m.Better == "lower"
		}
	}
	fmt.Fprintf(w, "%s → %s\n", a, b)
	fmt.Fprintf(w, "  %-26s %12s %12s %9s %8s %13s  %s\n", "metric", "median A", "median B", "shift", "bound", "spreads A/B", "verdict")
	for _, k := range sets[0].metricNames() {
		ma, mb := median(sets[0].values(k)), median(sets[1].values(k))
		shift := (mb - ma) / ma
		bound, ok := bounds[k]
		verdict := "no bound"
		if ok {
			worse := shift
			if !lower[k] {
				worse = -shift
			}
			sa, sb := spread(sets[0].values(k)), spread(sets[1].values(k))
			switch {
			case k != "setup_s" && (sa > bound || sb > bound):
				verdict = "spread over bound"
			case worse > bound:
				verdict = "WORSE beyond bound"
			default:
				verdict = "within bound"
			}
		}
		fmt.Fprintf(w, "  %-26s %12.5g %12.5g %8.1f%% %8.2f %5.1f%%/%5.1f%%  %s\n", k, ma, mb, 100*shift, bound,
			100*spread(sets[0].values(k)), 100*spread(sets[1].values(k)), verdict)
	}
	return nil
}

// lastJSON returns the last line of a run's output, decoded.
func lastJSON(out string) (*result, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}
