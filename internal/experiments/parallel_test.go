package experiments

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"smartndr/internal/obs"
)

// TestExperimentsWorkerCountInvariance: the restructured experiments
// collect rows into index-addressed slices before rendering, so their
// rendered tables must be byte-identical at any worker count. (T3 is
// excluded everywhere it reports measured wall-clock milliseconds.)
func TestExperimentsWorkerCountInvariance(t *testing.T) {
	for _, id := range []string{"t2", "t4", "f3", "f4"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(workers int) string {
				var buf bytes.Buffer
				if err := r.Run(Options{Out: &buf, Quick: true, Workers: workers}); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return buf.String()
			}
			serial := render(1)
			for _, workers := range []int{2, 8} {
				if got := render(workers); got != serial {
					t.Errorf("workers=%d output differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, serial, workers, got)
				}
			}
		})
	}
}

// TestAllParallel: the concurrent suite must produce every table, in
// registry order, exactly as the serial suite renders them, and trace the
// same span tree. Every span nests under exactly one experiment's span:
// concurrent experiments and arms each run on a scoped view of the
// tracer, so none nests under another's open span.
func TestAllParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short")
	}
	run := func(workers int) (string, map[string]int) {
		col := obs.NewCollector()
		var buf bytes.Buffer
		if err := All(Options{Out: &buf, Quick: true, Workers: workers, Tracer: obs.New(col)}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		paths := map[string]int{}
		for _, ev := range col.Events() {
			paths[ev.Span]++
		}
		return buf.String(), paths
	}
	serialOut, serialPaths := run(1)
	out, paths := run(4)
	if maskT3(out) != maskT3(serialOut) {
		t.Errorf("parallel All output differs from serial:\n--- serial ---\n%s\n--- workers=4 ---\n%s", serialOut, out)
	}
	if !maps.Equal(paths, serialPaths) {
		for p, n := range paths {
			if serialPaths[p] != n {
				t.Errorf("span %s: %d at workers=4, %d at workers=1", p, n, serialPaths[p])
			}
		}
		for p, n := range serialPaths {
			if _, ok := paths[p]; !ok {
				t.Errorf("span %s: absent at workers=4, %d at workers=1", p, n)
			}
		}
	}
	for p := range paths {
		if !strings.HasPrefix(p, "exp.") || strings.Count(p, "exp.") != 1 {
			t.Errorf("span %s does not nest under exactly one experiment", p)
		}
	}
	prev := -1
	for _, r := range Registry() {
		marker := strings.ToUpper(r.ID) + ":"
		at := strings.Index(out, marker)
		if at < 0 {
			t.Errorf("parallel All output missing %s", marker)
			continue
		}
		if at < prev {
			t.Errorf("%s rendered out of registry order", marker)
		}
		prev = at
	}
}
