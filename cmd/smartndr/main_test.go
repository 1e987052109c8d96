package main

import "testing"

func TestPickSchemes(t *testing.T) {
	all, err := pickSchemes("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("all: %v %v", all, err)
	}
	for _, name := range []string{"all-default", "blanket", "trunk", "smart", "smart-ndr", "blanket-ndr", "top-k"} {
		s, err := pickSchemes(name)
		if err != nil || len(s) != 1 {
			t.Errorf("%s: %v %v", name, s, err)
		}
	}
	if _, err := pickSchemes("bogus"); err == nil {
		t.Error("unknown scheme must fail")
	}
}

func TestLoadBenchConflicts(t *testing.T) {
	if _, err := loadBench("cns01", "x.json"); err == nil {
		t.Error("both -bench and -in must fail")
	}
	bm, err := loadBench("", "")
	if err != nil || bm.Spec.Name != "cns01" {
		t.Errorf("default benchmark: %v %v", bm.Spec.Name, err)
	}
	if _, err := loadBench("", "/nonexistent.json"); err == nil {
		t.Error("missing file must fail")
	}
}
