package smartndr_test

import (
	"context"
	"testing"

	"smartndr"
	"smartndr/internal/tech"
	"smartndr/internal/testutil"
)

func TestFlowEndToEnd(t *testing.T) {
	bm := testutil.SmallBench(t, 200, 2500)
	flow, built := testutil.BuildFlow(t, nil, bm)
	if built.Buffers < 1 || built.NumClusters < 2 {
		t.Fatalf("implausible build: %+v", built)
	}

	results := map[smartndr.Scheme]*smartndr.Result{}
	for _, s := range []smartndr.Scheme{
		smartndr.SchemeAllDefault, smartndr.SchemeBlanket, smartndr.SchemeTopK, smartndr.SchemeSmart,
	} {
		results[s] = testutil.Apply(t, flow, built, s)
	}

	te := flow.Config().Tech
	smart := results[smartndr.SchemeSmart]
	blanket := results[smartndr.SchemeBlanket]
	def := results[smartndr.SchemeAllDefault]

	// The headline claim: smart ≤ blanket power, with constraints met.
	if smart.Metrics.Power.Total() >= blanket.Metrics.Power.Total() {
		t.Errorf("smart %.3f mW not below blanket %.3f mW",
			smart.Metrics.Power.Total()*1e3, blanket.Metrics.Power.Total()*1e3)
	}
	if smart.Metrics.SlewViol != 0 {
		t.Errorf("smart has %d slew violations", smart.Metrics.SlewViol)
	}
	if smart.Metrics.Skew > te.MaxSkew {
		t.Errorf("smart skew %.2f ps over bound", smart.Metrics.Skew*1e12)
	}
	// All-default is cheapest (it ignores constraints).
	if def.Metrics.Power.Total() > blanket.Metrics.Power.Total() {
		t.Error("all-default should be cheaper than blanket")
	}
	if smart.Stats == nil || smart.Stats.Downgrades == 0 {
		t.Error("smart stats missing or empty")
	}
	// Schemes must not share tree storage.
	if &smart.Tree.Nodes[0] == &blanket.Tree.Nodes[0] {
		t.Error("scheme results alias the same tree")
	}
	// The built tree must be untouched (still blanket).
	for i := range built.Tree.Nodes {
		if built.Tree.Nodes[i].Rule != te.BlanketRule {
			t.Fatal("Apply mutated the built tree")
		}
	}
}

func TestFlowTopKSweepMonotone(t *testing.T) {
	bm := testutil.SmallBench(t, 150, 2000)
	flow, built := testutil.BuildFlow(t, nil, bm)
	maxK := flow.MaxTopK(built)
	if maxK < 2 {
		t.Fatalf("MaxTopK = %d", maxK)
	}
	prev := -1.0
	for k := 0; k <= maxK; k++ {
		r, err := flow.ApplyTopK(built, k)
		if err != nil {
			t.Fatal(err)
		}
		cap := r.Metrics.SwitchedCap
		if cap < prev {
			t.Errorf("k=%d: cap %.3f pF decreased from %.3f (more NDR cannot cost less)",
				k, cap*1e12, prev*1e12)
		}
		prev = cap
	}
}

func TestFlowDefaults(t *testing.T) {
	f := smartndr.NewFlow(nil)
	cfg := f.Config()
	if cfg.Tech == nil || cfg.Library == nil || cfg.TopK != 2 || cfg.InSlew != 40e-12 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	f65 := smartndr.NewFlow(&smartndr.FlowConfig{Tech: tech.Tech65()})
	if f65.Config().Library.Name != "clkbuf65" {
		t.Errorf("tech65 should pick the 65 nm library, got %s", f65.Config().Library.Name)
	}
}

func TestFlowErrors(t *testing.T) {
	flow := smartndr.NewFlow(nil)
	if _, err := flow.Build(nil, smartndr.Point{}); err == nil {
		t.Error("empty sinks must fail")
	}
	if _, err := flow.Apply(nil, smartndr.SchemeSmart); err == nil {
		t.Error("nil built must fail")
	}
	bm := testutil.SmallBench(t, 10, 100)
	_, built := testutil.BuildFlow(t, nil, bm)
	if _, err := flow.Apply(built, smartndr.Scheme(99)); err == nil {
		t.Error("unknown scheme must fail")
	}
}

func TestBenchmarkLookup(t *testing.T) {
	bm := testutil.Named(t, "cns01")
	if len(bm.Sinks) != 1200 {
		t.Errorf("cns01 sinks = %d", len(bm.Sinks))
	}
	if _, err := smartndr.Benchmark("nope"); err == nil {
		t.Error("unknown benchmark must fail")
	}
	if len(smartndr.Suite()) != 8 {
		t.Error("suite size")
	}
}

func TestSchemeString(t *testing.T) {
	want := map[smartndr.Scheme]string{
		smartndr.SchemeAllDefault: "all-default",
		smartndr.SchemeBlanket:    "blanket-ndr",
		smartndr.SchemeTopK:       "top-k",
		smartndr.SchemeSmart:      "smart-ndr",
		smartndr.SchemeTrunk:      "trunk-ndr",
		smartndr.Scheme(9):        "scheme(9)",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), got, name)
		}
	}
}

func TestParseScheme(t *testing.T) {
	cases := map[string]smartndr.Scheme{
		"":            smartndr.SchemeSmart,
		"smart":       smartndr.SchemeSmart,
		"smart-ndr":   smartndr.SchemeSmart,
		"SMART":       smartndr.SchemeSmart,
		"all-default": smartndr.SchemeAllDefault,
		"default":     smartndr.SchemeAllDefault,
		"blanket":     smartndr.SchemeBlanket,
		"blanket-ndr": smartndr.SchemeBlanket,
		"top-k":       smartndr.SchemeTopK,
		"topk":        smartndr.SchemeTopK,
		"trunk":       smartndr.SchemeTrunk,
		"trunk-ndr":   smartndr.SchemeTrunk,
	}
	for name, want := range cases {
		got, err := smartndr.ParseScheme(name)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Every scheme's String name parses back to it.
	for s := smartndr.SchemeAllDefault; s <= smartndr.SchemeTrunk; s++ {
		if got, err := smartndr.ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := smartndr.ParseScheme("psychic"); err == nil {
		t.Error("ParseScheme accepted psychic")
	}
}

func TestDefaultLibraryFor(t *testing.T) {
	cases := []struct {
		name string
		te   *smartndr.Tech
		want string
	}{
		{"nil tech", nil, "clkbuf45"},
		{"tech45 preset", tech.Tech45(), "clkbuf45"},
		{"tech65 preset", tech.Tech65(), "clkbuf65"},
		// The regression NewFlow used to miss: a 65 nm-class technology
		// whose name is not literally "tech65" must still get the 65 nm
		// library, keyed by Node rather than string matching.
		{"renamed 65 nm tech", renamedTech(tech.Tech65(), "my_foundry_65lp"), "clkbuf65"},
		{"renamed 45 nm tech", renamedTech(tech.Tech45(), "my_foundry_45gp"), "clkbuf45"},
		// Legacy values with Node unset fall back to the name.
		{"legacy tech65 name", legacyTech(tech.Tech65()), "clkbuf65"},
		{"legacy custom name", renamedTech(legacyTech(tech.Tech65()), "custom"), "clkbuf45"},
	}
	for _, c := range cases {
		if got := smartndr.DefaultLibraryFor(c.te).Name; got != c.want {
			t.Errorf("%s: library = %s, want %s", c.name, got, c.want)
		}
		if c.te == nil {
			continue
		}
		f := smartndr.NewFlow(&smartndr.FlowConfig{Tech: c.te})
		if got := f.Config().Library.Name; got != c.want {
			t.Errorf("%s: NewFlow library = %s, want %s", c.name, got, c.want)
		}
	}
}

func renamedTech(te *smartndr.Tech, name string) *smartndr.Tech {
	te.Name = name
	return te
}

func legacyTech(te *smartndr.Tech) *smartndr.Tech {
	te.Node = 0
	return te
}

func TestApplyTopKZeroIsAllDefault(t *testing.T) {
	bm := testutil.SmallBench(t, 120, 1800)
	flow, built := testutil.BuildFlow(t, nil, bm)
	zero, err := flow.ApplyTopK(built, 0)
	if err != nil {
		t.Fatal(err)
	}
	def := testutil.Apply(t, flow, built, smartndr.SchemeAllDefault)
	if zero.Metrics.Power.Total() != def.Metrics.Power.Total() ||
		zero.Metrics.SwitchedCap != def.Metrics.SwitchedCap ||
		zero.Metrics.Skew != def.Metrics.Skew ||
		zero.Metrics.NDRFraction != def.Metrics.NDRFraction {
		t.Errorf("ApplyTopK(b, 0) metrics differ from SchemeAllDefault:\n%+v\n%+v",
			zero.Metrics, def.Metrics)
	}
	if zero.Metrics.NDRFraction != 0 {
		t.Errorf("K=0 should route everything on the default rule, NDR fraction %.3f",
			zero.Metrics.NDRFraction)
	}
	if _, err := flow.ApplyTopK(nil, 1); err == nil {
		t.Error("nil built must fail")
	}
}

// TestFlowApplyCloneIsolation pins down that Apply and ApplyTopK never
// mutate the Built tree, whatever scheme runs: every rule assignment in
// the built tree must match the pre-Apply snapshot afterwards.
func TestFlowApplyCloneIsolation(t *testing.T) {
	bm := testutil.SmallBench(t, 100, 1500)
	flow, built := testutil.BuildFlow(t, nil, bm)
	snapshot := make([]int, len(built.Tree.Nodes))
	for i := range built.Tree.Nodes {
		snapshot[i] = built.Tree.Nodes[i].Rule
	}
	check := func(label string) {
		t.Helper()
		if len(built.Tree.Nodes) != len(snapshot) {
			t.Fatalf("%s: node count changed", label)
		}
		for i := range built.Tree.Nodes {
			if built.Tree.Nodes[i].Rule != snapshot[i] {
				t.Fatalf("%s mutated built tree at node %d", label, i)
			}
		}
	}
	for _, s := range []smartndr.Scheme{
		smartndr.SchemeAllDefault, smartndr.SchemeBlanket, smartndr.SchemeTopK,
		smartndr.SchemeTrunk, smartndr.SchemeSmart,
	} {
		testutil.Apply(t, flow, built, s)
		check(s.String())
	}
	if _, err := flow.ApplyTopK(built, 3); err != nil {
		t.Fatal(err)
	}
	check("ApplyTopK")
}

// TestFlowTracing drives the flow through the public tracing surface and
// checks the recorded spans cover build, apply, and the metrics snapshot.
func TestFlowTracing(t *testing.T) {
	bm := testutil.SmallBench(t, 100, 1500)
	col := smartndr.NewTraceCollector()
	tracer := smartndr.NewTracer(col)
	flow, built := testutil.BuildFlow(t, &smartndr.FlowConfig{Tracer: tracer}, bm)
	testutil.Apply(t, flow, built, smartndr.SchemeSmart)
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for _, ev := range col.Events() {
		paths[ev.Span] = true
	}
	for _, want := range []string{
		"flow.build",
		"flow.build/cts.build",
		"flow.build/cts.build/cluster",
		"flow.apply",
		"flow.apply/core.optimize",
		"flow.apply/core.evaluate/sta.analyze",
		"metrics",
	} {
		if !paths[want] {
			t.Errorf("span %q missing; got %v", want, paths)
		}
	}
}

func TestFlowTimingAndMonteCarlo(t *testing.T) {
	bm := testutil.SmallBench(t, 80, 1200)
	flow, built := testutil.BuildFlow(t, nil, bm)
	res := testutil.Apply(t, flow, built, smartndr.SchemeSmart)
	timing, err := flow.Timing(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if timing.BufferCount != res.Metrics.Buffers {
		t.Error("timing and metrics disagree on buffers")
	}
	p := smartndr.VariationParams{WidthSigma: 0.004, BufSigma: 0.02, SpatialFrac: 0.5, Samples: 10, Seed: 3}
	mc, err := flow.MonteCarlo(res.Tree, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Samples) != 10 {
		t.Errorf("samples = %d", len(mc.Samples))
	}
}

// TestFlowInSlewReachesOptimizer checks that a non-default root input
// slew reaches every stage of the flow, not only the final evaluation:
// the flat optimizer's own worst slew equals the evaluated one, and the
// hierarchical optimizer and the Monte Carlo trials both see at least
// the 120 ps root transition.
func TestFlowInSlewReachesOptimizer(t *testing.T) {
	const inSlew = 120e-12
	bm := testutil.Named(t, "cns01")
	flow, built := testutil.BuildFlow(t, &smartndr.FlowConfig{InSlew: inSlew}, bm)
	res := testutil.Apply(t, flow, built, smartndr.SchemeSmart)
	if res.Stats.FinalSlew != res.Metrics.WorstSlew {
		t.Errorf("flat: optimizer final slew %.2f ps, evaluated worst slew %.2f ps",
			res.Stats.FinalSlew*1e12, res.Metrics.WorstSlew*1e12)
	}

	p := smartndr.VariationParams{WidthSigma: 0.004, BufSigma: 0.02, SpatialFrac: 0.5, Samples: 10, Seed: 3}
	mc, err := flow.MonteCarlo(res.Tree, p)
	if err != nil {
		t.Fatal(err)
	}
	if mc.WorstSlew < inSlew {
		t.Errorf("Monte Carlo worst slew %.2f ps below the %.0f ps input slew", mc.WorstSlew*1e12, inSlew*1e12)
	}

	hflow := smartndr.NewFlow(&smartndr.FlowConfig{InSlew: inSlew, Hier: smartndr.HierConfig{MaxRegionSinks: 400}})
	_, hres, err := hflow.RunHier(context.Background(), bm.Sinks, bm.Src, smartndr.SchemeSmart)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Stats.FinalSlew < inSlew {
		t.Errorf("hier: optimizer final slew %.2f ps below the %.0f ps input slew", hres.Stats.FinalSlew*1e12, inSlew*1e12)
	}
}

func TestFlowRepairSkewPublic(t *testing.T) {
	bm := testutil.SmallBench(t, 60, 1000)
	flow, built := testutil.BuildFlow(t, nil, bm)
	r := testutil.Apply(t, flow, built, smartndr.SchemeBlanket)
	if err := flow.RepairSkew(r.Tree, flow.Config().Tech.MaxSkew); err != nil {
		t.Fatal(err)
	}
	m, err := flow.Evaluate(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if m.Skew > flow.Config().Tech.MaxSkew {
		t.Errorf("post-repair skew %.2f ps over bound", m.Skew*1e12)
	}
}

func TestFlowEMAndCorners(t *testing.T) {
	bm := testutil.SmallBench(t, 120, 1800)
	flow, built := testutil.BuildFlow(t, nil, bm)
	r := testutil.Apply(t, flow, built, smartndr.SchemeSmart)
	viols, err := flow.AuditEM(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := flow.EnforceEM(r.Tree); err != nil || n != len(viols) {
		t.Fatalf("EnforceEM n=%d err=%v (audited %d)", n, err, len(viols))
	}
	rep, err := flow.EvaluateCorners(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corners) != 3 {
		t.Errorf("corners = %d", len(rep.Corners))
	}
}

func TestFlowRealizeSchedule(t *testing.T) {
	bm := testutil.SmallBench(t, 80, 1200)
	flow, built := testutil.BuildFlow(t, nil, bm)
	r := testutil.Apply(t, flow, built, smartndr.SchemeBlanket)
	targets := make([]float64, len(bm.Sinks)) // zero schedule == plain balance
	if err := flow.RealizeSchedule(r.Tree, targets, flow.Config().Tech.MaxSkew); err != nil {
		t.Fatal(err)
	}
	m, err := flow.Evaluate(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if m.Skew > flow.Config().Tech.MaxSkew {
		t.Errorf("zero schedule should equal skew balance: %.2f ps", m.Skew*1e12)
	}
}

func TestFlowMonteCarloWorkersInvariance(t *testing.T) {
	// FlowConfig.Workers is a pure throughput knob: the Monte Carlo
	// substream determinism makes results identical at any setting.
	bm := testutil.SmallBench(t, 120, 1500)
	serial, built := testutil.BuildFlow(t, &smartndr.FlowConfig{Workers: 1}, bm)
	parallel := smartndr.NewFlow(&smartndr.FlowConfig{Workers: 8})
	p := smartndr.VariationParams{WidthSigma: 0.004, BufSigma: 0.03, SpatialFrac: 0.6, Samples: 30, Seed: 11}
	a, err := serial.MonteCarlo(built.Tree, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.MonteCarlo(built.Tree, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
	if a.P95Skew != b.P95Skew || a.MeanSkew != b.MeanSkew {
		t.Error("summary stats differ across worker counts")
	}
}

// TestFlowRunSpec exercises the context-accepting one-call entry point:
// a background context runs the full pipeline, a cancelled context is
// refused at the first phase boundary, and the result matches the
// step-by-step form bit for bit.
func TestFlowRunSpec(t *testing.T) {
	spec := testutil.UniformSpec("runspec", 120, 1800, 42)
	flow := smartndr.NewFlow(nil)
	built, res, err := flow.RunSpecEdits(context.Background(), spec, smartndr.SchemeSmart, nil)
	if err != nil {
		t.Fatal(err)
	}
	if built == nil || res == nil || res.Stats == nil {
		t.Fatal("RunSpecEdits returned incomplete results")
	}
	manual := testutil.RunScheme(t, nil, testutil.Gen(t, spec), smartndr.SchemeSmart)
	if res.Metrics.Power.Total() != manual.Metrics.Power.Total() ||
		res.Metrics.Skew != manual.Metrics.Skew ||
		res.Metrics.SwitchedCap != manual.Metrics.SwitchedCap ||
		res.Metrics.Wirelength != manual.Metrics.Wirelength {
		t.Errorf("RunSpecEdits metrics differ from manual pipeline:\n%+v\n%+v",
			res.Metrics, manual.Metrics)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := flow.RunSpecEdits(cancelled, spec, smartndr.SchemeSmart, nil); err == nil {
		t.Error("cancelled context must fail")
	}
	bad := spec
	bad.Sinks = 0
	if _, _, err := flow.RunSpecEdits(context.Background(), bad, smartndr.SchemeSmart, nil); err == nil {
		t.Error("invalid spec must fail")
	}
}

// TestFlowCanonicalKey pins the content-address contract: the key is
// stable across calls and flows, insensitive to instrumentation and
// throughput knobs, and sensitive to every result-determining input.
func TestFlowCanonicalKey(t *testing.T) {
	spec := testutil.UniformSpec("key", 100, 1500, 7)
	key := func(cfg *smartndr.FlowConfig, sp smartndr.BenchSpec, sc smartndr.Scheme) string {
		t.Helper()
		k, err := smartndr.NewFlow(cfg).CanonicalKeyEdits(sp, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(nil, spec, smartndr.SchemeSmart)
	if base == "" || base != key(nil, spec, smartndr.SchemeSmart) {
		t.Fatal("key not stable across flows")
	}
	// Tracer and Workers are non-semantic: results are bit-identical, so
	// the content address must collapse them.
	traced := key(&smartndr.FlowConfig{
		Tracer: smartndr.NewTracer(smartndr.NewTraceCollector()), Workers: 8,
	}, spec, smartndr.SchemeSmart)
	if traced != base {
		t.Error("tracer/workers changed the canonical key")
	}
	// Every semantic input must move it.
	if key(nil, spec, smartndr.SchemeBlanket) == base {
		t.Error("scheme not in the key")
	}
	other := spec
	other.Seed++
	if key(nil, other, smartndr.SchemeSmart) == base {
		t.Error("spec seed not in the key")
	}
	if key(&smartndr.FlowConfig{Tech: tech.Tech65()}, spec, smartndr.SchemeSmart) == base {
		t.Error("technology not in the key")
	}
	if key(&smartndr.FlowConfig{TopK: 3}, spec, smartndr.SchemeSmart) == base {
		t.Error("TopK not in the key")
	}
	if key(&smartndr.FlowConfig{InSlew: 50e-12}, spec, smartndr.SchemeSmart) == base {
		t.Error("InSlew not in the key")
	}
	if key(&smartndr.FlowConfig{Hier: smartndr.HierConfig{MaxRegionSinks: 500}}, spec, smartndr.SchemeSmart) == base {
		t.Error("hier config not in the key")
	}
}

// TestFlowRunSpecHierDispatch pins the size gate: with Hier enabled,
// specs over the region bound take the partitioned pipeline and specs
// under it still build flat — and the hierarchical path produces a valid
// scheme result with in-budget skew.
func TestFlowRunSpecHierDispatch(t *testing.T) {
	cfg := &smartndr.FlowConfig{Hier: smartndr.HierConfig{MaxRegionSinks: 400}}
	flow := smartndr.NewFlow(cfg)

	// Flat path clones the built tree per scheme; the hier path returns
	// one fused tree. That distinction is the dispatch witness.
	small := testutil.UniformSpec("hier-small", 120, 1500, 3)
	builtS, resS, err := flow.RunSpecEdits(context.Background(), small, smartndr.SchemeSmart, nil)
	if err != nil {
		t.Fatal(err)
	}
	if builtS.Tree == resS.Tree {
		t.Fatal("small spec took the hierarchical path; want flat")
	}

	big := testutil.UniformSpec("hier-big", 1600, 4000, 9)
	built, res, err := flow.RunSpecEdits(context.Background(), big, smartndr.SchemeSmart, nil)
	if err != nil {
		t.Fatal(err)
	}
	if built.Tree != res.Tree {
		t.Fatal("big spec must return one fused tree for Built and Result (hier path)")
	}
	if built.NumClusters < 2 {
		t.Fatalf("big spec yielded %d regions; expected a partition", built.NumClusters)
	}
	if res.Stats == nil || res.Stats.Downgrades == 0 {
		t.Error("hier smart run reported no optimization")
	}
	te := flow.Config().Tech
	if res.Metrics.Skew > te.MaxSkew {
		t.Errorf("hier skew %.2f ps over budget %.2f ps", res.Metrics.Skew*1e12, te.MaxSkew*1e12)
	}
	// The blanket scheme must run hierarchically too, without stats.
	_, bres, err := flow.RunSpecEdits(context.Background(), big, smartndr.SchemeBlanket, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Stats != nil {
		t.Error("blanket hier run carries optimizer stats")
	}
	if res.Metrics.SwitchedCap >= bres.Metrics.SwitchedCap {
		t.Error("smart hier run did not reduce switched capacitance vs blanket")
	}
}
