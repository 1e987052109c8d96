// Package cts orchestrates full clock-tree synthesis: from a bare sink set
// to a buffered, embedded, zero-skew (by construction, to model accuracy)
// clock tree ready for routing-rule assignment.
//
// The builder uses the classical two-phase hierarchical methodology:
//
// Phase A — leaf clusters. Sinks are split by recursive median
// bipartition, merged bottom-up once under pure-wire Elmore DME, and cut
// into the largest subsets of the split whose total capacitance (wire +
// pins, under the blanket rule) fits one buffer stage. Each cluster keeps
// its subtree of that embedding and gets a buffer at its tap point. The
// buffer input becomes a pseudo-sink carrying the cluster's insertion
// delay as an offset.
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
	"math/bits"
	"slices"

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

// clusterCapFrac is the fraction of MaxCapPerStage a leaf cluster may
// fill.
const clusterCapFrac = 0.8

// topCapFrac is the fraction of MaxCapPerStage one repeated-line segment
// may fill: junction repeaters drive two segments, so half a budget each
// keeps junction stages legal.
const topCapFrac = 0.5

// refSlew is the reference input transition used for cell selection and
// linearization, s.
const refSlew = 50e-12

// clusterSlewMargin is the fraction of the slew budget a cluster buffer's
// lumped output transition may use; the rest covers in-cluster wire slew.
const clusterSlewMargin = 0.6

// calibrationIters bounds the STA-feedback rebuild loop; deviations shrink
// superlinearly, so a few rounds reach STA-level balance.
const calibrationIters = 8

// trimDamping under-corrects each trim iteration: lengthening a leaf edge
// also loads its upstream junction, which the trim estimate does not see.
const trimDamping = 0.9

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
	rl, err := buffering.PlanRepeatedLine(lib, r, c, topCapFrac*te.MaxCapPerStage, te.MaxSlew, refSlew)
	if err != nil {
		return nil, err
	}
	estSlew := rl.SteadySlew

	// ---- Phase A: cluster, embed, leaf-buffer. ----
	clSpan := tr.Start("cluster")
	defer clSpan.End() // error paths; no-op after the explicit End below
	bp, err := newBipartition(sinks, wireP)
	if err != nil {
		return nil, err
	}
	clusters, err := bp.clusterize(clusterCapFrac * te.MaxCapPerStage)
	if err != nil {
		return nil, err
	}
	clSpan.Set(obs.I("clusters", len(clusters)))
	clSpan.End()
	leafSpan := tr.Start("leaf_embed")
	defer leafSpan.End() // error paths; no-op after the explicit End below

	// Each cluster is embedded from the clock source, buffered at its
	// root, and cut out of the bipartition as a tree of its own.
	bp.tree.SetAllRules(te.BlanketRule)
	pseudo := make([]ctree.Sink, len(clusters))
	trees := make([]*ctree.Tree, len(clusters))
	cut := make([]ctree.Tree, len(clusters))
	nodes := make([]ctree.Node, 2*len(sinks)-len(clusters)) // a cluster of k sinks has 2k−1 nodes
	for i, cl := range clusters {
		if err := dme.Place(bp.tree, bp.st, bp.edge, cl.root, src); err != nil {
			return nil, fmt.Errorf("cts: cluster embed: %w", err)
		}
		delay, cap, err := dme.SubtreeDelay(bp.tree, cl.root, wireP)
		if err != nil {
			return nil, err
		}
		// Margin on the slew target: the buffer's output transition
		// degrades further across the cluster's distributed wire, so the
		// lumped check must leave headroom.
		b, _ := lib.SmallestMeeting(estSlew, cap, clusterSlewMargin*te.MaxSlew)
		bp.tree.Nodes[cl.root].BufIdx = cellIndex(lib, b)
		pseudo[i] = ctree.Sink{
			Name:  "clusterbuf",
			Loc:   bp.tree.Nodes[cl.root].Loc,
			Cap:   b.InputCap,
			Delay: delay + b.DelayAt(estSlew, cap),
		}
		size := 2*len(cl.members) - 1
		cut[i] = ctree.Tree{Sinks: sinks, Nodes: nodes[:0:size], SrcLoc: src}
		cut[i].Root = paste(&cut[i], bp.tree, cl.root, ctree.NoNode, nil)
		trees[i] = &cut[i]
		nodes = nodes[size:]
	}

	leafSpan.End()

	// ---- Single-cluster short-circuit. ----
	if len(clusters) == 1 {
		final := trees[0]
		res := &Result{Tree: final, NumClusters: 1, TopDelay: pseudo[0].Delay}
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
	topBase, err := topo.Build(pseudo, src)
	if err != nil {
		return nil, err
	}
	if err := dme.Embed(topBase, topP); err != nil {
		return nil, fmt.Errorf("cts: top embed: %w", err)
	}
	topBase.SetAllRules(te.BlanketRule)
	topDelay, _, err := dme.SubtreeDelay(topBase, topBase.Root, topP)
	if err != nil {
		return nil, err
	}
	// Locate each pseudo-sink's leaf node in the un-split top tree.
	leafOf := make([]int, len(clusters))
	for i := range topBase.Nodes {
		if si := topBase.Nodes[i].SinkIdx; si != ctree.NoSink {
			leafOf[si] = i
		}
	}
	leafLen := make([]float64, len(clusters))
	for ci, ln := range leafOf {
		leafLen[ci] = topBase.Nodes[ln].EdgeLen
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
	// Every round rebuilds the top tree and the stitched tree in the same
	// storage, and analyzes on the same engine.
	topWork := &ctree.Tree{Sinks: topBase.Sinks, Root: topBase.Root, SrcLoc: topBase.SrcLoc}
	final := ctree.NewTree(sinks, src)
	clusterRoots := make([]int, len(clusters))
	arr := make([]float64, len(clusters))
	inc := sta.NewIncremental(te, lib)
	for iter := 0; iter < iters; iter++ {
		calIters = iter + 1
		topWork.Nodes = append(topWork.Nodes[:0], topBase.Nodes...)
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
		stitch(final, topWork, trees, nil, clusterRoots)
		if iter == iters-1 {
			break
		}
		an, err := inc.Full(final, refSlew, nil, nil)
		if err != nil {
			return nil, err
		}
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
		if spread < te.MaxSkew/4 {
			iters = iter + 2 // one final rebuild with the last trims
		}
	}

	calSpan.Set(obs.I("iters", calIters))
	calSpan.Set(obs.F("spread_ps", lastSpread*1e12))
	calSpan.End()

	// No post-hoc resizing: the cell choices above are exactly what the
	// DME offsets and the delay model assumed; changing them here would
	// reintroduce skew.

	res := &Result{
		Tree:        final,
		NumClusters: len(clusters),
		Repeater:    rl,
		TopDelay:    topDelay,
	}
	return res, final.Validate()
}

// bipartition is the recursive median split of a sink set (topo.Split's
// rule) with its zero-skew embedding merged bottom-up once: every subset
// the split visits is the subtree under one node of tree, with that
// subtree's DME state in st and each node's merge length in edge. It is
// the topology a standalone topo.Build of any of these subsets would
// produce, so leaf clustering tests candidates and cuts clusters out of it
// without re-splitting or re-merging anything.
type bipartition struct {
	tree *ctree.Tree
	st   []dme.State
	edge []float64
	p    dme.Params
	// order[d] holds, over the positions of each depth-d subset, that
	// subset's sinks in the order its parent's split left them (order[0]
	// is the input order). That order is where a standalone bipartition
	// of the subset starts, and it decides ties between coincident sinks.
	order [][]int
}

// cluster is one leaf cluster: its sinks, in the order the split left
// them, and the root of its subtree in the bipartition.
type cluster struct {
	members []int
	root    int
}

// newBipartition splits and merges the sinks under the wire model p.
func newBipartition(sinks []ctree.Sink, p dme.Params) (*bipartition, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(sinks)
	depth := bits.Len(uint(n - 1)) // halving n sinks takes ⌈log₂ n⌉ levels
	flat := make([]int, (depth+1)*n)
	b := &bipartition{
		tree:  ctree.NewTree(sinks, geom.Point{}),
		st:    make([]dme.State, 2*n-1),
		edge:  make([]float64, 2*n-1),
		p:     p,
		order: make([][]int, depth+1),
	}
	b.tree.Nodes = make([]ctree.Node, 0, 2*n-1)
	for d := range b.order {
		b.order[d] = flat[d*n : (d+1)*n]
	}
	for i := range b.order[0] {
		b.order[0][i] = i
	}
	root, err := b.build(0, n, 0)
	b.tree.Root = root
	return b, err
}

// build creates the subtree of the depth-d subset at positions [lo, hi)
// and returns its root.
func (b *bipartition) build(lo, hi, d int) (int, error) {
	t := b.tree
	in := b.order[d][lo:hi]
	if len(in) == 1 {
		v := t.AddNode(ctree.Node{
			Parent: ctree.NoNode, Kids: [2]int{ctree.NoNode, ctree.NoNode},
			SinkIdx: in[0], BufIdx: ctree.NoBuf,
		})
		b.st[v] = dme.SinkState(t.Sinks[in[0]])
		return v, nil
	}
	out := b.order[d+1][lo:hi]
	copy(out, in)
	mid := lo + topo.Split(t.Sinks, out)
	l, err := b.build(lo, mid, d+1)
	if err != nil {
		return 0, err
	}
	r, err := b.build(mid, hi, d+1)
	if err != nil {
		return 0, err
	}
	v := t.AddNode(ctree.Node{
		Parent: ctree.NoNode, Kids: [2]int{l, r},
		SinkIdx: ctree.NoSink, BufIdx: ctree.NoBuf,
	})
	t.Nodes[l].Parent, t.Nodes[r].Parent = v, v
	if b.st[v], b.edge[l], b.edge[r], err = dme.Merge(b.st[l], b.st[r], b.p); err != nil {
		return 0, fmt.Errorf("cts: merging %d sinks: %w", len(in), err)
	}
	return v, nil
}

// clusterize returns the leaf clusters: from the whole set down, in split
// order, the first subsets whose capacitance fits the budget. A subset's
// capacitance is what embedding it alone gives: its root on the merging
// segment nearest the origin, every edge raised to the distance it spans,
// the caps summed bottom-up. Single sinks always fit.
func (b *bipartition) clusterize(budget float64) ([]cluster, error) {
	var out []cluster
	err := b.clusterizeAt(b.tree.Root, 0, len(b.tree.Sinks), 0, budget, &out)
	return out, err
}

func (b *bipartition) clusterizeAt(v, lo, hi, d int, budget float64, out *[]cluster) error {
	fits := hi-lo == 1
	if !fits {
		if err := dme.Place(b.tree, b.st, b.edge, v, geom.Point{}); err != nil {
			return err
		}
		_, cap, err := dme.SubtreeDelay(b.tree, v, b.p)
		if err != nil {
			return err
		}
		fits = cap <= budget
	}
	if fits {
		*out = append(*out, cluster{members: b.order[d][lo:hi], root: v})
		return nil
	}
	mid := lo + (hi-lo)/2
	kids := b.tree.Nodes[v].Kids
	if err := b.clusterizeAt(kids[0], lo, mid, d+1, budget, out); err != nil {
		return err
	}
	return b.clusterizeAt(kids[1], mid, hi, d+1, budget, out)
}

// paste copies the subtree of src under v into dst below parent, in
// pre-order with kid 0 first, mapping sink indices through member (nil
// when src already indexes dst's sinks), and returns the copy's root.
func paste(dst, src *ctree.Tree, v, parent int, member []int) int {
	n := src.Nodes[v]
	cp := n
	cp.Parent = parent
	cp.Kids = [2]int{ctree.NoNode, ctree.NoNode}
	if n.SinkIdx != ctree.NoSink && member != nil {
		cp.SinkIdx = member[n.SinkIdx]
	}
	id := dst.AddNode(cp)
	slot := 0
	for _, k := range n.Kids {
		if k == ctree.NoNode {
			continue
		}
		dst.Nodes[id].Kids[slot] = paste(dst, src, k, id, member)
		slot++
	}
	return id
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
// to global ones through members[i] (members nil: the subtrees already
// index sinks). The subtree root inherits the leaf's feeding-edge
// attributes (length and rule); clusterRoots, sized len(trees) by the
// caller, records the final-tree node ID of each subtree's buffered root.
// The cts builder uses it to paste leaf clusters under the repeated-line
// top tree; the hierarchical flow reuses it one level up to paste whole
// region trees under the global top tree.
func Stitch(sinks []ctree.Sink, src geom.Point, top *ctree.Tree, trees []*ctree.Tree, members [][]int, clusterRoots []int) *ctree.Tree {
	final := ctree.NewTree(sinks, src)
	stitch(final, top, trees, members, clusterRoots)
	return final
}

// stitch is Stitch into final, whose node storage it reuses.
func stitch(final, top *ctree.Tree, trees []*ctree.Tree, members [][]int, clusterRoots []int) {
	size := len(top.Nodes) - len(trees)
	for _, t := range trees {
		size += len(t.Nodes)
	}
	final.Nodes = slices.Grow(final.Nodes[:0], size)
	var pasteTop func(srcNode, parent int) int
	pasteTop = func(srcNode, parent int) int {
		n := top.Nodes[srcNode]
		if ci := n.SinkIdx; ci != ctree.NoSink {
			var member []int
			if members != nil {
				member = members[ci]
			}
			id := paste(final, trees[ci], trees[ci].Root, parent, member)
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
}

// clusterSinkArrival returns the arrival of one sink under the given
// cluster root, reached by always taking the last child; all sinks of a
// cluster arrive together (the cluster DME and STA use the same wire
// math), so one sample represents the cluster.
func clusterSinkArrival(t *ctree.Tree, an *sta.Result, v int) float64 {
	for t.Nodes[v].SinkIdx == ctree.NoSink {
		switch k := t.Nodes[v].Kids; {
		case k[1] != ctree.NoNode:
			v = k[1]
		case k[0] != ctree.NoNode:
			v = k[0]
		default:
			return 0
		}
	}
	return an.Arrival[v]
}
