package analysis_test

import (
	"strings"
	"testing"

	"smartndr/internal/analysis"
	"smartndr/internal/analysis/analysistest"
)

// TestGolden checks every analyzer against its golden packages under
// testdata/src: each has at least one flagged and one clean case, and
// the want comments pin the exact diagnostics.
func TestGolden(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		pkgs     []string
	}{
		{analysis.Maporder, []string{"maporder/core", "maporder/other"}},
		{analysis.Seededrand, []string{"seededrand/engine", "seededrand/par"}},
		{analysis.Wallclock, []string{"wallclock/sta", "wallclock/obs", "wallclock/cli"}},
		{analysis.Spanhygiene, []string{"spanhygiene/a"}},
		{analysis.Floatorder, []string{"floatorder/a"}},
		{analysis.Metricname, []string{"metricname/engine", "metricname/clean"}},
		{analysis.Httpbody, []string{"httpbody/client"}},
		{analysis.Errcmp, []string{"errcmp/a", "errcmp/own"}},
		{analysis.Gateleak, []string{"gateleak/a"}},
		{analysis.Ctxflow, []string{"ctxflow/lib", "ctxflow/mainpkg"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.analyzer.Name, func(t *testing.T) {
			t.Parallel()
			analysistest.Run(t, "testdata", c.analyzer, c.pkgs...)
		})
	}
}

func TestByName(t *testing.T) {
	got, err := analysis.ByName("wallclock,maporder")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "wallclock" || got[1].Name != "maporder" {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name
		}
		t.Fatalf("ByName returned %v, want [wallclock maporder]", names)
	}
	if _, err := analysis.ByName("nosuchanalyzer"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
}

func TestAllHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.ContainsAny(a.Name, " ,") {
			t.Errorf("analyzer name %q must be a single flag-friendly token", a.Name)
		}
	}
	// The full roster, by name: a registration forgotten in All() fails
	// here, not silently in CI.
	want := []string{
		"maporder", "seededrand", "wallclock", "spanhygiene", "floatorder",
		"metricname", "httpbody", "errcmp", "gateleak", "ctxflow",
	}
	if len(seen) != len(want) {
		t.Errorf("expected the %d suite analyzers, got %d", len(want), len(seen))
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("analyzer %q is not registered in All()", name)
		}
	}
}
