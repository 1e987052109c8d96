// Package hier builds clock trees at production scale (10^5–10^6 sinks)
// by partitioned hierarchical construction: the sink set is split into
// bounded-size geometric regions, each region gets its own complete CTS
// build (and, optionally, smart-NDR rule optimization) on a worker pool,
// and the region trees are then stitched under one top-level tree whose
// DME pass balances the regions' measured insertion delays.
//
// The skew budget is split across the two levels: regions are built (and
// optimized) to SkewSplit × budget of internal skew, and the stitched
// tree's residual *inter-region* skew — the top model's error plus
// whatever the region measurement missed — is cleaned up by a final
// global wire-snaking balance, to the full budget. Its snakes touch most
// of the tree every iteration, so it times each state with a full pass
// that walks disjoint subtrees on the worker pool (sta.NewParallel).
//
// Determinism contract: the output is a pure function of (sinks, src,
// technology, library, config) — Workers only bounds the fan-out. Region
// builds are independent, results land in index-addressed slices
// (internal/par's contract), and every aggregation runs serially in
// region-index order; the balance's pooled passes write every node with
// the serial pass's arithmetic. So the stitched tree is byte-identical at
// any worker count. The invariance test in this package pins that down.
package hier

import (
	"context"
	"errors"
	"fmt"
	"math"

	"smartndr/internal/cell"
	"smartndr/internal/core"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/topo"
)

// Config parameterizes a hierarchical build.
type Config struct {
	// MaxRegionSinks bounds the sink count of one region (default 2048).
	// Sink sets at or under the bound build flat — one region, no top
	// tree.
	MaxRegionSinks int
	// SkewSplit is the fraction of the skew budget granted to intra-region
	// skew; the rest absorbs inter-region error (default 0.5, range (0,1)).
	SkewSplit float64
	// Smart runs the paper's per-edge smart-NDR optimization inside every
	// region (before the top tree is built, so region insertion delays are
	// measured post-optimization). False leaves the blanket rule everywhere.
	Smart bool
	// Workers bounds the region fan-out and the global balance's timing
	// passes: 0 uses GOMAXPROCS, 1 is serial. Results are bit-identical
	// for every value.
	Workers int
	// InSlew is the root input transition used for region delay
	// measurement and the final global balance (default
	// sta.DefaultInSlew).
	InSlew float64
	// CTS configures the per-region and top-tree builders. The top build
	// always runs with NoCalibration — see Build.
	CTS cts.Options
	// Opt configures the per-region smart optimizer (Smart only). Its
	// MaxSkew (or the technology bound when zero) is the *global* budget;
	// regions receive SkewSplit × that. Its InSlew defaults to InSlew.
	Opt core.Config
	// Tracer instruments the build phases (partition, regions, top_embed,
	// stitch, balance). Nil disables instrumentation at no cost.
	Tracer *obs.Tracer
}

// balanceIters bounds the final global skew-repair loop.
const balanceIters = 40

func (c Config) withDefaults() Config {
	if c.MaxRegionSinks == 0 {
		c.MaxRegionSinks = 2048
	}
	if c.SkewSplit == 0 {
		c.SkewSplit = 0.5
	}
	if c.InSlew == 0 {
		c.InSlew = sta.DefaultInSlew
	}
	if c.Opt.InSlew == 0 {
		c.Opt.InSlew = c.InSlew
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MaxRegionSinks < 1 {
		return fmt.Errorf("hier: non-positive region bound %d", c.MaxRegionSinks)
	}
	// Negated comparisons, so that NaN fails them too.
	if !(c.SkewSplit > 0 && c.SkewSplit < 1) {
		return fmt.Errorf("hier: skew split %g out of (0,1)", c.SkewSplit)
	}
	if !(c.InSlew > 0) {
		return fmt.Errorf("hier: non-positive input slew %g", c.InSlew)
	}
	return nil
}

// Result is a hierarchical build plus its telemetry.
type Result struct {
	Tree *ctree.Tree
	// NumRegions is the number of partitioned regions (1 = flat build).
	NumRegions int
	// RegionSinks[i] is the sink count of region i.
	RegionSinks []int
	// Opt aggregates the per-region optimizer stats (Smart only): counters
	// and wire/cap totals are summed across regions, Passes and FinalSlew
	// take the worst region, FinalSkew is the *global* post-balance skew.
	// The per-pass breakdown slices are region-local and therefore absent.
	Opt *core.Stats
	// Balance reports the final global skew-repair pass.
	Balance core.RepairStats
	// Skew is the final verified global skew, s.
	Skew float64
}

// Build synthesizes a clock tree over the sinks hierarchically. See the
// package comment for the pipeline; the notable subtlety is that the top
// tree is built with calibration disabled: cts.Build's STA feedback loop
// cannot see pseudo-sink Delay offsets (plain STA measures arrivals at
// the tap pins, not below them), so letting it "balance" the top tree
// would equalize tap arrivals and destroy exactly the compensation the
// DME merge encoded. The final post-stitch balance, which runs on the
// full tree where every real sink is visible, owns inter-region cleanup
// instead.
func Build(ctx context.Context, sinks []ctree.Sink, src geom.Point, te *tech.Tech, lib *cell.Library, cfg Config) (*Result, error) {
	if len(sinks) == 0 {
		return nil, errors.New("hier: no sinks")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	tr := cfg.Tracer
	sp := tr.Start("hier.build", obs.I("sinks", len(sinks)))
	defer sp.End()

	// Resolved skew budgets: regions get SkewSplit × global, the final
	// balance targets the full global budget.
	globalSkew := cfg.Opt.MaxSkew
	if globalSkew == 0 {
		globalSkew = te.MaxSkew
	}
	regionOpt := cfg.Opt
	regionOpt.Tracer = nil // workers must not share the ambient span stack
	regionOpt.MaxSkew = cfg.SkewSplit * globalSkew
	regionCTS := cfg.CTS
	regionCTS.Tracer = nil

	// ---- Partition. ----
	partSpan := tr.Start("hier.partition")
	defer partSpan.End() // error paths; no-op after the explicit End below
	regions := topo.Partition(sinks, cfg.MaxRegionSinks)
	partSpan.Set("regions", len(regions))
	partSpan.End()

	res := &Result{NumRegions: len(regions), RegionSinks: make([]int, len(regions))}
	for i, r := range regions {
		res.RegionSinks[i] = len(r)
	}

	// ---- Flat short-circuit: one region is just an ordinary build. ----
	if len(regions) == 1 {
		built, err := cts.Build(sinks, src, te, lib, cfg.CTS)
		if err != nil {
			return nil, err
		}
		built.Tree.SetAllRules(te.BlanketRule)
		if cfg.Smart {
			opt := cfg.Opt
			opt.Tracer = cfg.Tracer
			st, err := core.Optimize(built.Tree, te, lib, opt)
			if err != nil {
				return nil, err
			}
			res.Opt = st
			res.Skew = st.FinalSkew
		} else {
			an, err := sta.Analyze(built.Tree, te, lib, cfg.InSlew)
			if err != nil {
				return nil, err
			}
			res.Skew = an.Skew()
		}
		res.Tree = built.Tree
		return res, built.Tree.Validate()
	}

	// ---- Per-region builds on the worker pool. ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	regSpan := tr.Start("hier.regions", obs.I("regions", len(regions)))
	defer regSpan.End() // error paths; no-op after the explicit End below
	workers := par.Workers(cfg.Workers)
	trees := make([]*ctree.Tree, len(regions))
	pseudo := make([]ctree.Sink, len(regions))
	stats := make([]*core.Stats, len(regions))
	analyzers := make([]*sta.Incremental, workers)
	err := par.ForEachWorker(ctx, workers, len(regions), func(w, i int) error {
		rs := regSpan.Child("region", obs.I("idx", i), obs.I("sinks", len(regions[i])))
		defer rs.End()
		members := regions[i]
		sub := make([]ctree.Sink, len(members))
		for j, m := range members {
			sub[j] = sinks[m]
		}
		built, err := cts.Build(sub, src, te, lib, regionCTS)
		if err != nil {
			return fmt.Errorf("hier: region %d: %w", i, err)
		}
		t := built.Tree
		t.SetAllRules(te.BlanketRule)
		if cfg.Smart {
			st, err := core.Optimize(t, te, lib, regionOpt)
			if err != nil {
				return fmt.Errorf("hier: region %d optimize: %w", i, err)
			}
			stats[i] = st
		}
		if analyzers[w] == nil {
			analyzers[w] = sta.NewIncremental(te, lib)
		}
		an, err := analyzers[w].Full(t, cfg.InSlew, nil, nil)
		if err != nil {
			return fmt.Errorf("hier: region %d timing: %w", i, err)
		}
		root := t.Nodes[t.Root]
		trees[i] = t
		pseudo[i] = ctree.Sink{
			Name: "region",
			Loc:  root.Loc,
			Cap:  lib.Buffers[root.BufIdx].InputCap,
			// The offset the top DME balances: measured insertion delay
			// from the region root's input pin down to its slowest sink.
			Delay: an.MaxSinkArrival(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	regSpan.End()

	if cfg.Smart {
		res.Opt = aggregateStats(stats)
	}

	// ---- Top tree over the region pseudo-sinks. ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	topSpan := tr.Start("hier.top_embed", obs.I("regions", len(regions)))
	defer topSpan.End() // error paths; no-op after the explicit End below
	topCTS := cfg.CTS
	topCTS.Tracer = cfg.Tracer
	topCTS.NoCalibration = true // see the function comment
	topBuilt, err := cts.Build(pseudo, src, te, lib, topCTS)
	if err != nil {
		return nil, fmt.Errorf("hier: top tree: %w", err)
	}
	topBuilt.Tree.SetAllRules(te.BlanketRule)
	topSpan.End()

	// ---- Stitch regions under the top tree. ----
	stitchSpan := tr.Start("hier.stitch")
	defer stitchSpan.End() // error paths; no-op after the explicit End below
	regionRoots := make([]int, len(regions))
	final := cts.Stitch(sinks, src, topBuilt.Tree, trees, regions, regionRoots)
	stitchSpan.Set("nodes", len(final.Nodes))
	stitchSpan.End()
	if err := final.Validate(); err != nil {
		return nil, fmt.Errorf("hier: stitched tree: %w", err)
	}

	// ---- Final global balance, ground-truth STA. ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	balSpan := tr.Start("hier.balance")
	defer balSpan.End() // error paths; no-op after the explicit End below
	bal, err := core.RepairSkewParallel(ctx, final, te, lib, cfg.InSlew, globalSkew, balanceIters, workers)
	if err != nil {
		return nil, fmt.Errorf("hier: balance: %w", err)
	}
	balSpan.Set("iters", bal.Iters)
	balSpan.Set("rollbacks", bal.Rollbacks)
	balSpan.Set("final_skew_ps", bal.FinalSkew*1e12)
	balSpan.End()

	res.Tree = final
	res.Balance = bal
	res.Skew = bal.FinalSkew
	if res.Opt != nil {
		res.Opt.FinalSkew = bal.FinalSkew
	}
	return res, nil
}

// aggregateStats folds per-region optimizer stats into one summary, in
// region-index order (float sums are order-sensitive; fixing the order
// keeps the summary deterministic at any worker count).
func aggregateStats(stats []*core.Stats) *core.Stats {
	agg := &core.Stats{}
	for _, st := range stats {
		if st == nil {
			continue
		}
		agg.Passes = max(agg.Passes, st.Passes)
		agg.Downgrades += st.Downgrades
		agg.Upgrades += st.Upgrades
		agg.CapBefore += st.CapBefore
		agg.CapAfter += st.CapAfter
		agg.RepairWire += st.RepairWire
		agg.FinalSlew = math.Max(agg.FinalSlew, st.FinalSlew)
		agg.RepairRounds += st.RepairRounds
		agg.RecoverRounds += st.RecoverRounds
	}
	return agg
}
