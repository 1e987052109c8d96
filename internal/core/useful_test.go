package core

import (
	"context"
	"math"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

func TestRepairToTargetsRealizesSchedule(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 100, 211, 1500, te, lib)
	// A realistic useful-skew schedule is per register bank (cluster), not
	// per flip-flop: fine-grained per-sink offsets would need delay
	// buffers, since wire snaking at a low-load leaf edge is capacitance-
	// prohibitive. Banks on the right half of the die get 12 ps of
	// intentional lag.
	targets := make([]float64, len(tr.Sinks))
	for i := range tr.Nodes {
		si := tr.Nodes[i].SinkIdx
		if si == ctree.NoSink {
			continue
		}
		// The sink's bank is its nearest buffered ancestor.
		v := i
		for v != ctree.NoNode && tr.Nodes[v].BufIdx == ctree.NoBuf {
			v = tr.Nodes[v].Parent
		}
		if v != ctree.NoNode && tr.Nodes[v].Loc.X > 750 {
			targets[si] = 12e-12
		}
	}
	// A fresh call restarts the adaptive damping (same idiom Optimize
	// uses); two rounds realize a bank-level schedule comfortably.
	var st RepairStats
	for round := 0; round < 3; round++ {
		var err error
		st, err = RepairToTargets(context.Background(), tr, te, lib, 40e-12, targets, 8e-12, 40, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Converged {
			break
		}
	}
	if !st.Converged {
		t.Fatalf("schedule not realized: residual %.2f ps", st.FinalSkew*1e12)
	}
	// Verify the achieved arrival differences follow the schedule.
	res, err := sta.Analyze(tr, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	loA, hiA := math.Inf(1), math.Inf(-1)
	for i := range tr.Nodes {
		si := tr.Nodes[i].SinkIdx
		if si == ctree.NoSink {
			continue
		}
		a := res.Arrival[i] - targets[si]
		loA = math.Min(loA, a)
		hiA = math.Max(hiA, a)
	}
	if hiA-loA > 8e-12 {
		t.Errorf("target-adjusted spread %.2f ps over tolerance", (hiA-loA)*1e12)
	}
	// Slews stay legal.
	if v := res.SlewViolations(te.MaxSlew); v > 0 {
		t.Errorf("schedule realization broke %d slews", v)
	}
}

func TestRepairToTargetsValidation(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := buildBlanket(t, 10, 213, 200, te, lib)
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, []float64{1e-12}, 5e-12, 5, 1); err == nil {
		t.Error("target length mismatch must fail")
	}
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, 0, 5, 1); err == nil {
		t.Error("zero tolerance must fail")
	}
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, math.NaN(), 5, 1); err == nil {
		t.Error("NaN tolerance must fail")
	}
	// A budget of no iterations is an error, and it must leave every
	// edge alone: no iteration ran, so no snapshot exists to restore.
	before := tr.Clone()
	if _, err := RepairToTargets(context.Background(), tr, te, lib, 40e-12, nil, 5e-12, 0, 1); err == nil {
		t.Error("zero iteration budget must fail")
	}
	sameTree(t, "zero budget", tr, before)
}
