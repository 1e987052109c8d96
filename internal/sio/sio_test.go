package sio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/cts"
	"smartndr/internal/tech"
	"smartndr/internal/workload"
)

func TestBenchmarkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bm, err := workload.Generate(workload.CNSSuite()[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bm.json")
	if err := SaveJSON(path, bm); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchmark(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != bm.Spec || len(got.Sinks) != len(bm.Sinks) {
		t.Error("benchmark round trip mismatch")
	}
	for i := range got.Sinks {
		if got.Sinks[i] != bm.Sinks[i] {
			t.Fatalf("sink %d mismatch", i)
		}
	}
}

func TestTreeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bm, _ := workload.Generate(workload.Spec{
		Name: "t", Dist: workload.Uniform, Sinks: 40, DieX: 800, DieY: 800,
		CapMin: 1e-15, CapMax: 2e-15, Seed: 3,
	})
	res, err := cts.Build(bm.Sinks, bm.Src, tech.Tech45(), cell.Default45(), cts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tree.json")
	if err := SaveTree(path, res.Tree); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTree(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(res.Tree.Nodes) || got.Root != res.Tree.Root {
		t.Fatal("tree shape mismatch")
	}
	for i := range got.Nodes {
		a, b := got.Nodes[i], res.Tree.Nodes[i]
		if a.Parent != b.Parent || a.EdgeLen != b.EdgeLen || a.Rule != b.Rule || a.BufIdx != b.BufIdx {
			t.Fatalf("node %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if got.TotalWirelength() != res.Tree.TotalWirelength() {
		t.Error("wirelength changed in round trip")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage.json":     "not json at all{{{",
		"unknown.json":     `{"nope": 1}`,
		"empty_bench.json": `{"spec":{"name":"x","dist":0,"sinks":5,"die_x":10,"die_y":10,"cap_min":1e-15,"cap_max":2e-15,"seed":1},"sinks":[],"src":{"X":0,"Y":0}}`,
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBenchmark(p); err == nil {
			t.Errorf("%s: load should fail", name)
		}
	}
	if _, err := LoadBenchmark(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := LoadTree(filepath.Join(dir, "garbage.json")); err == nil {
		t.Error("corrupt tree should fail")
	}
}

func TestLoadTreeRejectsBrokenStructure(t *testing.T) {
	dir := t.TempDir()
	// A tree whose root points nowhere.
	content := `{"sinks":[{"name":"s","loc":{"X":0,"Y":0},"cap":1e-15}],"nodes":[],"root":5,"src":[0,0]}`
	p := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTree(p); err == nil {
		t.Error("structurally broken tree must fail")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf,
		Series{Name: "x", Values: []float64{1, 2, 3}},
		Series{Name: "y", Values: []float64{10, 20, 30}},
	)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != "2,20" {
		t.Errorf("row = %q", lines[2])
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf); err == nil {
		t.Error("no series should fail")
	}
	err := WriteCSV(&buf,
		Series{Name: "x", Values: []float64{1}},
		Series{Name: "y", Values: []float64{1, 2}},
	)
	if err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestWriteCSVFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "out.csv")
	if err := WriteCSVFile(p, Series{Name: "v", Values: []float64{1.5}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "v\n1.5") {
		t.Errorf("content = %q", data)
	}
}
