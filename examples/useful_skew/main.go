// Useful skew: instead of zero skew, realize an *intentional* arrival
// schedule. A pipeline whose critical paths all flow left-to-right gains
// margin if downstream register banks receive the clock a little later —
// the classic useful-skew transformation. This example schedules the right
// half of the die 12 ps late and verifies the tree realizes it.
//
//	go run ./examples/useful_skew
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"smartndr"
	"smartndr/internal/ctree"
	"smartndr/internal/workload"
)

func main() {
	bm, err := smartndr.GenerateBenchmark(smartndr.BenchSpec{
		Name: "pipeline", Dist: workload.Grid, Sinks: 600,
		DieX: 3000, DieY: 2400, CapMin: 1e-15, CapMax: 3e-15, Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	flow := smartndr.NewFlow(nil)
	built, err := flow.Build(bm.Sinks, bm.Src)
	if err != nil {
		log.Fatal(err)
	}
	r, err := flow.Apply(built, smartndr.SchemeSmart)
	if err != nil {
		log.Fatal(err)
	}

	// Bank-granular schedule: banks (leaf buffer stages) on the right half
	// lag by 12 ps. Schedules must align to banks — per-flip-flop offsets
	// inside one stage cannot be realized with wire alone.
	const lag = 12e-12
	targets := make([]float64, len(bm.Sinks))
	tr := r.Tree
	for i := range tr.Nodes {
		si := tr.Nodes[i].SinkIdx
		if si == ctree.NoSink {
			continue
		}
		v := i
		for v != ctree.NoNode && tr.Nodes[v].BufIdx == ctree.NoBuf {
			v = tr.Nodes[v].Parent
		}
		if v != ctree.NoNode && tr.Nodes[v].Loc.X > bm.Spec.DieX/2 {
			targets[si] = lag
		}
	}
	if err := flow.RealizeSchedule(context.Background(), tr, targets, 8e-12); err != nil {
		log.Fatal(err)
	}

	// Verify: mean arrival of right banks minus left banks ≈ the lag.
	timing, err := flow.Timing(tr)
	if err != nil {
		log.Fatal(err)
	}
	var sumL, sumR float64
	var nL, nR int
	for i := range tr.Nodes {
		si := tr.Nodes[i].SinkIdx
		if si == ctree.NoSink {
			continue
		}
		if targets[si] > 0 {
			sumR += timing.Arrival[i]
			nR++
		} else {
			sumL += timing.Arrival[i]
			nL++
		}
	}
	gotLag := sumR/float64(nR) - sumL/float64(nL)
	fmt.Printf("scheduled lag: %.1f ps    realized mean lag: %.1f ps (error %.1f ps)\n",
		lag*1e12, gotLag*1e12, math.Abs(gotLag-lag)*1e12)
	m, err := flow.Evaluate(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after scheduling: power %.3f mW, worst slew %.2f ps, violations %d\n",
		m.Power.Total()*1e3, m.WorstSlew*1e12, m.SlewViol)
	fmt.Println("\nright-half banks now receive the clock intentionally late — setup margin")
	fmt.Println("borrowed for left-to-right pipeline paths, with slews still legal.")
}
