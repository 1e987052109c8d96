package experiments

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsQuick exercises every registered experiment in quick
// mode: each must run cleanly and produce a non-trivial table.
func TestAllExperimentsQuick(t *testing.T) {
	for _, r := range Registry() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.Run(Options{Out: &buf, Quick: true}); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s produced a trivial table:\n%s", r.ID, out)
			}
		})
	}
}

func TestCSVDumps(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := F1SlewSweep(Options{Out: &buf, Quick: true, DataDir: dir}); err != nil {
		t.Fatal(err)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("t2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("zz"); err == nil {
		t.Error("unknown id must fail")
	}
}

// TestAllQuick pins every table of the quick suite: a serial All must
// reproduce testdata/all_quick.golden byte for byte, apart from T3's
// measured wall-clock columns. A change that moves a table on purpose
// regenerates the file with
//
//	go run ./cmd/experiments -exp all -quick -workers 1 > internal/experiments/testdata/all_quick.golden
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short")
	}
	var buf bytes.Buffer
	if err := All(Options{Out: &buf, Quick: true, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(maskT3(buf.String()), "\n"), strings.Split(maskT3(string(golden)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("line %d differs from testdata/all_quick.golden:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// maskT3 keeps only the sinks and nodes columns of T3's rows: the other
// three are measured wall-clock milliseconds.
func maskT3(out string) string {
	lines := strings.Split(out, "\n")
	inT3 := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "T3:"):
			inT3 = true
		case l == "":
			inT3 = false
		case inT3:
			f := strings.Fields(l)
			if _, err := strconv.Atoi(f[0]); err == nil && len(f) == 5 {
				lines[i] = f[0] + " " + f[1]
			}
		}
	}
	return strings.Join(lines, "\n")
}
