package core_test

import (
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/core"
	"smartndr/internal/tech"
	"smartndr/internal/testutil"
)

// TestOptimizeAllocs pins BenchmarkOptimize's operation: the EM-aware
// optimization of a repaired 300-sink blanket tree, the clone it runs on
// included.
func TestOptimizeAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	em := core.DefaultEMLimit()
	base := core.BuildBlanket(t, 300, 55, 3000, te, lib)
	if _, err := core.RepairSkew(base, te, lib, 40e-12, te.MaxSkew, 30); err != nil {
		t.Fatal(err)
	}
	testutil.PinAllocs(t, "Optimize", 5, 30867, func() {
		if _, err := core.Optimize(base.Clone(), te, lib, core.Config{EM: &em}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRepairSkewAllocs pins BenchmarkRepairSkew's operation: skew repair
// of a 300-sink blanket tree on a fresh engine, the clone included.
func TestRepairSkewAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	base := core.BuildBlanket(t, 300, 55, 3000, te, lib)
	testutil.PinAllocs(t, "RepairSkew", 5, 67, func() {
		if _, err := core.RepairSkew(base.Clone(), te, lib, 40e-12, te.MaxSkew, 30); err != nil {
			t.Fatal(err)
		}
	})
}
