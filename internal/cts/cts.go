// Package cts orchestrates full clock-tree synthesis: from a bare sink set
// to a buffered, embedded, zero-skew (by construction, to model accuracy)
// clock tree ready for routing-rule assignment.
//
// The builder uses the classical two-phase hierarchical methodology:
//
// Phase A — leaf clusters. Sinks are partitioned geometrically into
// clusters whose total capacitance (wire + pins, under the blanket rule)
// fits one buffer stage. Each cluster gets a pure-wire Elmore DME subtree
// and a buffer at its tap point. The buffer input becomes a pseudo-sink
// carrying the cluster's insertion delay as an offset.
//
// Phase B — top tree. A single DME pass runs over the pseudo-sinks under a
// *linear* delay model: every top-level wire is a repeated line (identical
// repeaters at fixed spacing), whose delay is a constant per micron. The
// DME merge balances total arrival including the phase-A offsets, so skew
// is zero under the composite model. After embedding, edges are split at
// the repeater spacing and repeater cells are placed at every split and
// merge node (junction repeaters are common-mode: they delay both branches
// equally). A final sizing pass fits each buffer to its actual stage load.
//
// What remains as *real* skew — measured afterwards by package sta — is
// only the error of the composite model (table-vs-linear buffer delay,
// partial repeater segments), which is small and is further cleaned up by
// the optimizer's skew-repair pass.
package cts

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"smartndr/internal/buffering"
	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/dme"
	"smartndr/internal/geom"
	"smartndr/internal/obs"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/topo"
)

// Options configure the builder.
type Options struct {
	// Topology picks the per-cluster and top-tree topology generator.
	Topology topo.Method
	// ClusterCapFrac is the fraction of MaxCapPerStage a leaf cluster may
	// fill (default 0.8).
	ClusterCapFrac float64
	// TopCapFrac is the fraction of MaxCapPerStage one repeated-line
	// segment may fill (default 0.5 — junction repeaters drive two
	// segments, so half a budget each keeps junction stages legal).
	TopCapFrac float64
	// RefSlew is the reference input transition used for cell selection
	// and linearization (default 50 ps).
	RefSlew float64
	// LinearTopModel switches the top-tree DME from the exact repeated-
	// line model to the amortized linear-rate model. The linear model
	// ignores the discreteness of repeater counts and leaves an extra
	// ±half-repeater-delay of construction skew per edge — kept as an
	// ablation knob (experiment A-model), not for production use.
	LinearTopModel bool
	// NoCalibration disables the STA feedback loop that cancels the
	// per-cluster common-mode model error (ablation knob). Construction
	// skew grows by roughly an order of magnitude without it.
	NoCalibration bool
	// Tracer, when non-nil, records per-phase construction spans
	// (clustering, leaf embedding, top embedding, calibration). Nil
	// disables instrumentation at no cost.
	Tracer *obs.Tracer
}

// clusterSlewMargin is the fraction of the slew budget a cluster buffer's
// lumped output transition may use; the rest covers in-cluster wire slew.
const clusterSlewMargin = 0.6

// calibrationIters bounds the STA-feedback rebuild loop; deviations shrink
// superlinearly, so a few rounds reach STA-level balance.
const calibrationIters = 8

// trimDamping under-corrects each trim iteration: lengthening a leaf edge
// also loads its upstream junction, which the trim estimate does not see.
const trimDamping = 0.9

// debugCalibration prints per-iteration calibration spread (tests only).
var debugCalibration = false

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.ClusterCapFrac == 0 {
		o.ClusterCapFrac = 0.8
	}
	if o.TopCapFrac == 0 {
		o.TopCapFrac = 0.5
	}
	if o.RefSlew == 0 {
		o.RefSlew = 50e-12
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.ClusterCapFrac <= 0 || o.ClusterCapFrac > 1 {
		return fmt.Errorf("cts: cluster cap fraction %g out of (0,1]", o.ClusterCapFrac)
	}
	if o.TopCapFrac <= 0 || o.TopCapFrac > 1 {
		return fmt.Errorf("cts: top cap fraction %g out of (0,1]", o.TopCapFrac)
	}
	if o.RefSlew <= 0 {
		return fmt.Errorf("cts: non-positive reference slew %g", o.RefSlew)
	}
	return nil
}

// Result is a built clock tree plus construction telemetry.
type Result struct {
	Tree *ctree.Tree
	// NumClusters is the number of phase-A leaf clusters.
	NumClusters int
	// Repeater is the planned repeated-line configuration of phase B
	// (zero-valued when the whole design fit in one cluster).
	Repeater buffering.RepeatedLine
	// TopDelay is the model-predicted source-to-sink insertion delay, s.
	TopDelay float64
}

// Build synthesizes a buffered clock tree over the sinks. All edges carry
// the technology's blanket rule; rule optimization happens downstream.
func Build(sinks []ctree.Sink, src geom.Point, te *tech.Tech, lib *cell.Library, opt Options) (*Result, error) {
	if len(sinks) == 0 {
		return nil, errors.New("cts: no sinks")
	}
	if err := te.Validate(); err != nil {
		return nil, err
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	tr := opt.Tracer
	sp := tr.Start("cts.build", obs.I("sinks", len(sinks)))
	defer sp.End()
	blanket := te.Rule(te.BlanketRule)
	r := te.Layer.RPerUm(blanket)
	c := te.Layer.CPerUm(blanket)
	wireP := dme.Params{Model: dme.Elmore, RPerUm: r, CPerUm: c}

	// Plan the top-level repeated line up front: its steady-state input
	// transition is the slew every repeater *and* every cluster buffer
	// actually sees, so all delay estimates below linearize around it.
	rl, err := buffering.PlanRepeatedLine(lib, r, c, opt.TopCapFrac*te.MaxCapPerStage, te.MaxSlew, opt.RefSlew)
	if err != nil {
		return nil, err
	}
	estSlew := rl.SteadySlew

	// ---- Phase A: cluster, embed, leaf-buffer. ----
	clSpan := tr.Start("cluster")
	defer clSpan.End() // error paths; no-op after the explicit End below
	idx := make([]int, len(sinks))
	for i := range idx {
		idx[i] = i
	}
	var clusters [][]int
	budget := opt.ClusterCapFrac * te.MaxCapPerStage
	if err := clusterize(sinks, idx, budget, wireP, opt.Topology, &clusters); err != nil {
		return nil, err
	}
	clSpan.Set("clusters", len(clusters))
	clSpan.End()
	leafSpan := tr.Start("leaf_embed")
	defer leafSpan.End() // error paths; no-op after the explicit End below

	type clusterTree struct {
		tree   *ctree.Tree
		member []int // original sink index per cluster-local sink
		pseudo ctree.Sink
		bufIdx int
	}
	cts := make([]clusterTree, 0, len(clusters))
	for _, members := range clusters {
		sub := make([]ctree.Sink, len(members))
		for i, m := range members {
			sub[i] = sinks[m]
		}
		tr, err := topo.Build(opt.Topology, sub, src)
		if err != nil {
			return nil, err
		}
		if err := dme.Embed(tr, wireP); err != nil {
			return nil, fmt.Errorf("cts: cluster embed: %w", err)
		}
		tr.SetAllRules(te.BlanketRule)
		delay, cap, err := dme.SubtreeDelay(tr, wireP)
		if err != nil {
			return nil, err
		}
		// Margin on the slew target: the buffer's output transition
		// degrades further across the cluster's distributed wire, so the
		// lumped check must leave headroom.
		b, _ := lib.SmallestMeeting(estSlew, cap, clusterSlewMargin*te.MaxSlew)
		bi := cellIndex(lib, b)
		tr.Nodes[tr.Root].BufIdx = bi
		cts = append(cts, clusterTree{
			tree:   tr,
			member: members,
			pseudo: ctree.Sink{
				Name:  "clusterbuf",
				Loc:   tr.Nodes[tr.Root].Loc,
				Cap:   b.InputCap,
				Delay: delay + b.DelayAt(estSlew, cap),
			},
			bufIdx: bi,
		})
	}

	leafSpan.End()

	// ---- Single-cluster short-circuit. ----
	if len(cts) == 1 {
		final := rebaseCluster(cts[0].tree, cts[0].member, sinks, src)
		res := &Result{Tree: final, NumClusters: 1, TopDelay: cts[0].pseudo.Delay}
		return res, final.Validate()
	}

	// ---- Phase B: top tree, then frozen-geometry balance trimming. ----
	//
	// The composite delay model (linearized repeaters, junction-load
	// fixed-point, slew-penalty constants) still leaves a small per-
	// cluster *common-mode* error: within a cluster the DME math and the
	// STA math are identical, so all construction skew lives between
	// clusters. Rebuilding the embedding from corrected offsets does not
	// converge — every re-embedding re-rolls the geometry-coupled error —
	// so instead the geometry is frozen after one embedding and only the
	// clusters' feeding edges are lengthened (repeater-aware snaking) to
	// slow early clusters into balance, measured by the real STA.
	b0 := &lib.Buffers[rl.CellIdx]
	lin := buffering.Linearize(b0, estSlew)
	segLoad := c*rl.Spacing + b0.InputCap
	outJ := b0.OutSlewAt(estSlew, 2*segLoad)
	var topP dme.Params
	if opt.LinearTopModel {
		topP = dme.Params{Model: dme.Linear, KPerUm: rl.KPerUm, CPerUm: c, MergeDelay: rl.JunctionDelay}
	} else {
		topP = dme.Params{
			Model:  dme.Repeated,
			RPerUm: r,
			CPerUm: c,
			Repeat: dme.RepeatParams{
				Rd: lin.Rd, T0: lin.T0, Cin: lin.Cin, Spacing: rl.Spacing,
				SlewPenalty: b0.DelayAt(outJ, segLoad) - b0.DelayAt(estSlew, segLoad),
			},
		}
	}
	topSpan := tr.Start("top_embed")
	defer topSpan.End() // error paths; no-op after the explicit End below
	pseudo := make([]ctree.Sink, len(cts))
	for i := range cts {
		pseudo[i] = cts[i].pseudo
	}
	topBase, err := topo.Build(opt.Topology, pseudo, src)
	if err != nil {
		return nil, err
	}
	if err := dme.Embed(topBase, topP); err != nil {
		return nil, fmt.Errorf("cts: top embed: %w", err)
	}
	topBase.SetAllRules(te.BlanketRule)
	topDelay, _, err := dme.SubtreeDelay(topBase, topP)
	if err != nil {
		return nil, err
	}
	// Locate each pseudo-sink's leaf node in the un-split top tree.
	leafOf := make([]int, len(cts))
	for i := range topBase.Nodes {
		if si := topBase.Nodes[i].SinkIdx; si != ctree.NoSink {
			leafOf[si] = i
		}
	}
	leafLen := make([]float64, len(cts))
	for ci, ln := range leafOf {
		leafLen[ci] = topBase.Nodes[ln].EdgeLen
	}
	trees := make([]*ctree.Tree, len(cts))
	members := make([][]int, len(cts))
	for i := range cts {
		trees[i] = cts[i].tree
		members[i] = cts[i].member
	}
	topSpan.End()
	iters := calibrationIters
	if opt.NoCalibration {
		iters = 1
	}
	calSpan := tr.Start("calibrate")
	defer calSpan.End() // error paths; no-op after the explicit End below
	lastSpread := 0.0
	calIters := 0
	var final *ctree.Tree
	clusterRoots := make([]int, len(cts))
	for iter := 0; iter < iters; iter++ {
		calIters = iter + 1
		topWork := topBase.Clone()
		for ci, ln := range leafOf {
			topWork.Nodes[ln].EdgeLen = leafLen[ci]
		}
		buffering.SplitLongEdges(topWork, rl.Spacing)
		// Repeaters at every internal (non-pseudo-sink) node.
		for i := range topWork.Nodes {
			if topWork.Nodes[i].SinkIdx == ctree.NoSink {
				topWork.Nodes[i].BufIdx = rl.CellIdx
			}
		}
		final = Stitch(sinks, src, topWork, trees, members, clusterRoots)
		if iter == iters-1 {
			break
		}
		an, err := sta.Analyze(final, te, lib, opt.RefSlew)
		if err != nil {
			return nil, err
		}
		arr := make([]float64, len(cts))
		arrMax := math.Inf(-1)
		for ci, rootID := range clusterRoots {
			arr[ci] = clusterSinkArrival(final, an, rootID)
			arrMax = math.Max(arrMax, arr[ci])
		}
		spread := 0.0
		for ci := range arr {
			lag := arrMax - arr[ci]
			if lag > spread {
				spread = lag
			}
			if lag > 1e-13 {
				leafLen[ci] = topP.ExtendForDelay(leafLen[ci], trimDamping*lag)
			}
		}
		lastSpread = spread
		if debugCalibration {
			fmt.Printf("cts: trim iter %d spread %.2f ps\n", iter, spread*1e12)
		}
		if spread < te.MaxSkew/4 {
			iters = iter + 2 // one final rebuild with the last trims
		}
	}

	calSpan.Set("iters", calIters)
	calSpan.Set("spread_ps", lastSpread*1e12)
	calSpan.End()

	// No post-hoc resizing: the cell choices above are exactly what the
	// DME offsets and the delay model assumed; changing them here would
	// reintroduce skew.

	res := &Result{
		Tree:        final,
		NumClusters: len(cts),
		Repeater:    rl,
		TopDelay:    topDelay,
	}
	return res, final.Validate()
}

// clusterize recursively bipartitions sink index sets until each cluster's
// embedded capacitance fits the budget.
func clusterize(sinks []ctree.Sink, idx []int, budget float64, p dme.Params, m topo.Method, out *[][]int) error {
	if len(idx) == 1 {
		*out = append(*out, idx)
		return nil
	}
	sub := make([]ctree.Sink, len(idx))
	for i, si := range idx {
		sub[i] = sinks[si]
	}
	tr, err := topo.Build(m, sub, geom.Point{})
	if err != nil {
		return err
	}
	if err := dme.Embed(tr, p); err != nil {
		return err
	}
	_, cap, err := dme.SubtreeDelay(tr, p)
	if err != nil {
		return err
	}
	if cap <= budget {
		*out = append(*out, idx)
		return nil
	}
	// Median split along the longer bounding-box axis.
	bb := geom.NewEmptyBBox()
	for _, si := range idx {
		bb.Extend(sinks[si].Loc)
	}
	byX := bb.Width() >= bb.Height()
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool {
		pa, pb := sinks[sorted[a]].Loc, sinks[sorted[b]].Loc
		if byX {
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			return pa.Y < pb.Y
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return pa.X < pb.X
	})
	mid := len(sorted) / 2
	if err := clusterize(sinks, sorted[:mid], budget, p, m, out); err != nil {
		return err
	}
	return clusterize(sinks, sorted[mid:], budget, p, m, out)
}

// rebaseCluster copies a cluster tree built over a sink subset into a tree
// over the full sink slice.
func rebaseCluster(t *ctree.Tree, member []int, sinks []ctree.Sink, src geom.Point) *ctree.Tree {
	final := ctree.NewTree(sinks, src)
	var paste func(srcNode, parent int) int
	paste = func(srcNode, parent int) int {
		n := t.Nodes[srcNode]
		cp := n
		cp.Parent = parent
		cp.Kids = [2]int{ctree.NoNode, ctree.NoNode}
		if n.SinkIdx != ctree.NoSink {
			cp.SinkIdx = member[n.SinkIdx]
		}
		id := final.AddNode(cp)
		slot := 0
		for _, k := range n.Kids {
			if k == ctree.NoNode {
				continue
			}
			final.Nodes[id].Kids[slot] = paste(k, id)
			slot++
		}
		return id
	}
	final.Root = paste(t.Root, ctree.NoNode)
	return final
}

func cellIndex(lib *cell.Library, b *cell.Buffer) int {
	for i := range lib.Buffers {
		if lib.Buffers[i].Name == b.Name {
			return i
		}
	}
	return 0
}

// Stitch assembles a tree over the original sinks from a top tree whose
// pseudo-sink i stands for subtree trees[i]: each pseudo-sink leaf is
// replaced by its subtree, with the subtree's local sink indices mapped
// to global ones through members[i]. The subtree root inherits the leaf's
// feeding-edge attributes (length and rule); clusterRoots, sized
// len(trees) by the caller, records the final-tree node ID of each
// subtree's buffered root. The cts builder uses it to paste leaf clusters
// under the repeated-line top tree; the hierarchical flow reuses it one
// level up to paste whole region trees under the global top tree.
func Stitch(sinks []ctree.Sink, src geom.Point, top *ctree.Tree, trees []*ctree.Tree, members [][]int, clusterRoots []int) *ctree.Tree {
	final := ctree.NewTree(sinks, src)
	var paste func(srcT *ctree.Tree, srcNode, parent int, member []int) int
	paste = func(srcT *ctree.Tree, srcNode, parent int, member []int) int {
		n := srcT.Nodes[srcNode]
		cp := n
		cp.Parent = parent
		cp.Kids = [2]int{ctree.NoNode, ctree.NoNode}
		if n.SinkIdx != ctree.NoSink {
			cp.SinkIdx = member[n.SinkIdx]
		}
		id := final.AddNode(cp)
		slot := 0
		for _, k := range n.Kids {
			if k == ctree.NoNode {
				continue
			}
			final.Nodes[id].Kids[slot] = paste(srcT, k, id, member)
			slot++
		}
		return id
	}
	var pasteTop func(srcNode, parent int) int
	pasteTop = func(srcNode, parent int) int {
		n := top.Nodes[srcNode]
		if ci := n.SinkIdx; ci != ctree.NoSink {
			id := paste(trees[ci], trees[ci].Root, parent, members[ci])
			final.Nodes[id].EdgeLen = n.EdgeLen
			final.Nodes[id].Rule = n.Rule
			clusterRoots[ci] = id
			return id
		}
		cp := n
		cp.Parent = parent
		cp.Kids = [2]int{ctree.NoNode, ctree.NoNode}
		id := final.AddNode(cp)
		slot := 0
		for _, k := range n.Kids {
			if k == ctree.NoNode {
				continue
			}
			final.Nodes[id].Kids[slot] = pasteTop(k, id)
			slot++
		}
		return id
	}
	final.Root = pasteTop(top.Root, ctree.NoNode)
	return final
}

// clusterSinkArrival returns the arrival of the first sink found under the
// given cluster root; all sinks of a cluster arrive together (the cluster
// DME and STA use the same wire math), so one sample represents the
// cluster.
func clusterSinkArrival(t *ctree.Tree, an *sta.Result, root int) float64 {
	stack := []int{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.Nodes[v].SinkIdx != ctree.NoSink {
			return an.Arrival[v]
		}
		for _, k := range t.Nodes[v].Kids {
			if k != ctree.NoNode {
				stack = append(stack, k)
			}
		}
	}
	return 0
}
