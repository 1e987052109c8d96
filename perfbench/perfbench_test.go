package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"smartndr/internal/serve"
	"smartndr/internal/workload"
)

func testShapes(t *testing.T) [4]sessionShape {
	t.Helper()
	var shapes [4]sessionShape
	for k, b := range sessionBenches {
		sh, err := newSessionShape(b, 500+k)
		if err != nil {
			t.Fatal(err)
		}
		shapes[k] = sh
	}
	return shapes
}

func streamOps(seed int64, client, n int, shapes [4]sessionShape) []iop {
	s := newOpStream(seed, "interactive", client, shapes)
	ops := make([]iop, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	shapes := testShapes(t)
	for i := 0; i < 10; i++ {
		if a, b := coldFlowSpec(7, i), coldFlowSpec(7, i); a != b {
			t.Fatalf("cold-flow request %d differs between two generations: %+v vs %+v", i, a, b)
		}
		if a, b := coldFlowSpec(7, i), coldFlowSpec(8, i); a.Seed == b.Seed {
			t.Fatalf("cold-flow request %d has the same design seed under seeds 7 and 8", i)
		}
		if a, b := hierSpec(7, i), hierSpec(8, i); a.Seed == b.Seed || a != hierSpec(7, i) {
			t.Fatalf("hier-100k request %d: not a pure function of the seed", i)
		}
	}
	a, b := streamOps(7, 1, 500, shapes), streamOps(7, 1, 500, shapes)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("interactive stream differs between two generations with one seed")
	}
	if reflect.DeepEqual(a, streamOps(8, 1, 500, shapes)) {
		t.Fatal("interactive stream does not change with the seed")
	}
	if reflect.DeepEqual(a, streamOps(7, 0, 500, shapes)) {
		t.Fatal("the two clients share one stream")
	}
	// Warm-up inputs must not depend on the seed.
	if coldWarmSpec(0) != coldWarmSpec(0) || hierWarmSpec() != hierWarmSpec() {
		t.Fatal("warm-up designs are not fixed")
	}
	// Every cold-flow shape and all four distributions appear.
	dists := map[workload.Distribution]bool{}
	for i := 0; i < 5; i++ {
		dists[coldFlowSpec(7, i).Dist] = true
	}
	if len(dists) != 4 {
		t.Fatalf("cold-flow covers %d distributions, want 4", len(dists))
	}
}

func TestEditStateStaysBounded(t *testing.T) {
	shapes := testShapes(t)
	for client := 0; client < interactiveClients; client++ {
		s := newOpStream(3, "interactive", client, shapes)
		seenOps := map[string]bool{}
		longest, hits := 0, 0
		for i := 0; i < 20000; i++ {
			op := s.next()
			if op.Hit >= 0 {
				hits++
				continue
			}
			if op.Sess/2 != client {
				t.Fatalf("client %d sent a delta to session %d it does not own", client, op.Sess)
			}
			if !op.Rollback {
				seenOps[op.Edit.Op] = true
				if err := op.Edit.Validate(); err != nil {
					t.Fatalf("generated an invalid edit: %v", err)
				}
			}
			n := len(s.state(op.Sess))
			if n > rollbackEvery-1 {
				t.Fatalf("session %d holds %d live edits after op %d, want at most %d", op.Sess, n, i, rollbackEvery-1)
			}
			longest = max(longest, len(s.live[op.Sess]))
		}
		if longest != rollbackEvery-1 {
			t.Fatalf("longest edit run %d, want %d", longest, rollbackEvery-1)
		}
		if len(seenOps) != 5 {
			t.Fatalf("edit ops generated: %v, want all five", seenOps)
		}
		if frac := float64(hits) / 20000; math.Abs(frac-1.0/hitEvery) > 0.02 {
			t.Fatalf("hit share %.3f, want about %.2f", frac, 1.0/hitEvery)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailPercentile(xs, 0.95); err == nil {
		t.Fatal("p95 over 199 samples (9 beyond) was reported")
	}
	xs = append(xs, 199)
	p, err := tailPercentile(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 over 200 samples refused: %v", err)
	}
	if p != 189 {
		t.Fatalf("p95 of 0..199 = %g, want 189 (nearest rank)", p)
	}
	if _, err := tailPercentile(xs[:12], 0.5); err == nil {
		t.Fatal("a non-tail percentile was accepted")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; with two values it extrapolates.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Fatalf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// smallFlow runs a tiny design through the production runner: a real
// /v1/flow body to tamper with.
func smallFlow(t *testing.T) (workload.Spec, []byte) {
	t.Helper()
	spec := coldShapes()[0]
	spec.Name, spec.Sinks, spec.Seed = "tiny", 64, 5
	req := specRequest(spec, 0)
	resp, err := (&serve.FlowRunner{}).RunFlow(context.Background(), &req, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return spec, body
}

func TestOutputChecksFlagTamperedBody(t *testing.T) {
	spec, body := smallFlow(t)
	good := reply{status: 200, cache: "miss", body: body}
	fc, err := checkFlow(good, spec.Name, spec.Sinks, "miss")
	if err != nil {
		t.Fatalf("untampered body rejected: %v", err)
	}

	// One digit of the switched capacitance changed: still valid JSON
	// with plausible metrics, so only the reference checks can see it.
	i := bytes.Index(body, []byte(`"switched_cap":`)) + len(`"switched_cap":`) + 2
	tampered := append([]byte(nil), body...)
	tampered[i] = '0' + (tampered[i]-'0'+1)%10
	if err := checkSame(tampered, body, "hit"); err == nil {
		t.Fatal("checkSame accepted a tampered body")
	}
	tfc, err := checkFlow(reply{status: 200, cache: "miss", body: tampered}, spec.Name, spec.Sinks, "miss")
	if err != nil {
		t.Fatalf("tampered but well-formed body rejected early: %v", err)
	}
	if tfc.qor == fc.qor {
		t.Fatal("QoR hash did not change with the metrics")
	}

	// An interactive cache hit whose body differs from the cold one fails.
	w := &interactive{}
	w.pristine[0] = body
	if _, _, err := w.check(iop{Hit: 0}, reply{status: 200, cache: serve.CacheHit, body: tampered}); err == nil {
		t.Fatal("a tampered cache hit passed the interactive check")
	}
	if _, _, err := w.check(iop{Hit: 0}, reply{status: 200, cache: serve.CacheHit, body: body}); err != nil {
		t.Fatalf("an untampered cache hit failed: %v", err)
	}

	// The digest comparison flags the tampered stream and passes the
	// recorded one.
	rec, run := newChain(), newChain()
	rec.add(fc.qor)
	rec.add(fc.qor)
	run.add(fc.qor)
	run.add(tfc.qor)
	golden, err := json.Marshal(goldenFile{"w": {"s": rec.marks}})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := verifyChains(golden, "w", map[string]*chain{"s": run})
	if err != nil || len(bad) != 1 || !strings.Contains(bad[0], "after 2 ops") {
		t.Fatalf("tampered stream: %v, %v", bad, err)
	}
	if bad, err := verifyChains(golden, "w", map[string]*chain{"s": rec}); err != nil || len(bad) != 0 {
		t.Fatalf("recorded stream flagged: %v, %v", bad, err)
	}

	// Malformed or failed replies fail before any comparison.
	for _, r := range []reply{
		{status: 500, body: []byte(`{"error":"x"}`)},
		{status: 200, cache: "miss", body: body[:len(body)/2]},
		{status: 200, cache: serve.CacheHit, body: body},
	} {
		if _, err := checkFlow(r, spec.Name, spec.Sinks, "miss"); err == nil {
			t.Fatalf("reply %d/%q/%d bytes passed", r.status, r.cache, len(r.body))
		}
	}
	if _, err := checkFlowBody(body, "other", spec.Sinks); err == nil {
		t.Fatal("a body for another design passed")
	}
}
