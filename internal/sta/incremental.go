package sta

import (
	"slices"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/obs"
	"smartndr/internal/tech"
)

// Incremental is the timing engine. It answers two kinds of query on
// storage it reuses across calls (no per-call allocation once sized):
//
//   - Full runs a from-scratch pass, optionally under electrical
//     overrides (corners, Monte Carlo trials) and with tracing. It is the
//     oracle: sta.Analyze is a fresh engine's Full.
//   - Analyze does the least work that gives Full's exact answer for the
//     tree's current state: the cached Result when nothing changed, a
//     dirty-region update over the edits reported through Touch and a
//     changed input slew, or a full pass.
//
// The dirty-region contract is exactness, not approximation: an
// incremental Analyze returns results bitwise identical to a from-scratch
// pass over the same tree. That is what lets the optimizer, sessions and
// the cold flow share results without changing a single decision (see the
// invariance tests in internal/core). The engine achieves it by running
// the full pass's own per-node steps, over the same operands, on the
// dirty region only:
//
//   - a rule or edge-length edit re-derives that edge's parasitics and
//     marks its owning stage cap-dirty; the stage's downstream caps and
//     StageCap are rebuilt bottom-up with the full pass's own step
//     (capacitive effects never escape a stage — buffer input pins
//     terminate the accumulation, so one bottom-up stage rebuild is the
//     whole upstream chain);
//   - a sink pin-cap edit on an unbuffered leaf updates the endpoint cap
//     the leaf presents to its stage and marks that stage cap-dirty,
//     exactly like a wire edit (design sessions edit sink caps in place);
//   - a buffer resize updates the endpoint cap it presents to its parent
//     stage (cap-dirty) and marks its own stage delay-dirty;
//   - a new input slew is written to the root pin and marks the root
//     stage delay-dirty;
//   - timing then re-propagates top-down in one depth-first walk from
//     each dirty stage driver that no earlier walk reached, shallowest
//     driver first, so every stage is timed after the stages above it
//     and at most once. Each node takes the full pass's own step
//     (wireTiming), and the walk enters the stage below a buffered
//     endpoint only when that endpoint is dirty or its (arrival, slew)
//     changed: it stops at every endpoint that came out bitwise
//     unchanged;
//   - a stage entered only by an arrival shift (input slew, load, and
//     buffer all unchanged) takes the arrival-only fast path: its cached
//     driver delay is reused and each node gets one add
//     (Arrival = stageOutArr + elm), skipping the NLDM table lookups and
//     the slew hypot entirely. This is the "subtree offset patch" of the
//     dirty-region design, realized as a recompute from the cached delay
//     rather than a float offset-add so the result stays bitwise exact.
//
// The same update keeps the whole-tree aggregates a metric report reads
// (see Summary) current from the nodes it rewrote, and re-sums the
// capacitance inventory from contiguous per-node arrays only when one of
// its inputs changed.
//
// When the dirty region is too large for the update to win — the visit
// budget, a structural edit (buffer added/removed), a new tree, a
// non-positive input slew, or a preceding Full call — Analyze falls back
// to one full pass, which also refreshes every cache. Zero pending edits
// at the same input slew return the cached Result for free.
//
// An engine from NewParallel answers every query with pending edits or a
// new input slew by a full pass, run on its workers (see NewParallel);
// every other engine runs its passes on the caller's goroutine.
//
// An Incremental is not safe for concurrent use — give each worker
// goroutine its own.
type Incremental struct {
	te  *tech.Tech
	lib *cell.Library
	res Result

	// Full-pass storage, rewritten by every pass and patched in place by
	// the dirty-region update.
	edgeR, edgeC []float64 // per-edge parasitics under assigned rules
	endCap       []float64 // L[v]: endpoint cap v presents to its stage
	downCap      []float64 // D[v]: π-lumped cap at-and-below v in-stage
	elm          []float64 // Elmore delay from stage driver output to v
	drv          []int     // owning stage driver per node
	// Stage driver outputs, indexed by driver node (written in startStage
	// before any descendant reads them — no clearing needed).
	stageOutArr, stageOutSlew []float64
	// stageDelay[v] is the driver delay computed for buffered node v by the
	// most recent pass (before any BufScale override). The update path
	// reuses it to re-derive stageOutArr for stages whose input slew and
	// load did not change, bitwise-identically to a fresh startStage.
	stageDelay []float64
	// The full pass's walks and their workers (see parallel.go).
	pool

	valid    bool
	tree     *ctree.Tree // the tree of the latest full pass
	n        int
	lastSlew float64

	bufIdx    []int // BufIdx snapshot at last analysis
	depth     []int // node depth (sort key for the dirty stage drivers)
	stageSize []int // per driver: node count of its stage

	// Nodes touched since the last query. An engine from NewParallel keeps
	// only the flag, since it answers any touch with a full pass.
	touched     bool
	pending     []int
	pendingMark []bool

	// Per-update scratch, cleared after every update.
	capDirty   []bool
	capList    []int
	delayDirty []bool
	delayList  []int
	mode       []uint8 // per driver: the mode the walk started its stage in
	started    []int   // drivers whose mode is set
	order      []int   // dirty stage drivers, shallowest first
	walk       []int   // DFS stack
	stageBuf   []int   // gathered stage nodes (cap phase)

	// Aggregates behind Summary. A stale flag means the cached value must
	// be recomputed before it is read; see Summary.
	sum                            Summary
	sinkLo, sinkHi                 float64
	arrStale, slewStale, wireStale bool
	// Feeding-edge length and rule per node (zeros where parentless): the
	// length sums' inputs, copied from the tree by the first Summary after
	// a full pass (lenValid) and kept current by the update from then on.
	wlen     []float64
	rule     []int
	lenValid bool
	pitch    []float64 // per rule, sumWire scratch
	ndr      []bool    // per rule, sumWire scratch

	stats IncStats
}

// Timing modes the update's walk starts a stage in: full re-times every
// node of the stage; arrival-only reuses its driver delay, Elmore delays
// and transitions and only shifts its arrivals.
const (
	modeNone uint8 = iota
	modeArrival
	modeFull
)

// IncStats counts what the engine did. NodeVisits is the STA cost metric:
// one unit per node touched by a tree-traversal pass — a full pass costs
// 2n (cap pass + timing pass), an incremental update costs the
// dirty-region stage walks it actually performs (arrival-only visits
// included, and the root pin when the input slew moved). Flat inventory
// re-sums (one add per node, no traversal) are not counted;
// docs/performance.md records the definition.
type IncStats struct {
	FullRuns   int   // from-scratch passes (every Full call; Analyze's first run, invalidation, fallback)
	IncRuns    int   // dirty-region updates that committed
	CachedRuns int   // zero-edit analyses served from cache
	Fallbacks  int   // updates abandoned for a full run
	NodeVisits int64 // total node visits under the metric above
}

// NewIncremental returns a timing engine for the technology and library.
// The first query sizes its storage; later queries on same-sized trees
// are allocation-free.
func NewIncremental(te *tech.Tech, lib *cell.Library) *Incremental {
	return &Incremental{te: te, lib: lib}
}

// Full runs a from-scratch analysis on the engine's reused storage. ov
// optionally replaces the electrical view (see Overrides); a non-nil
// tracer splits the run into an "rc_build" span (parasitic extraction and
// load accumulation) and a "propagate" span (the timing walk) under
// "sta.analyze". Full counts as a full run in Stats and leaves no state
// for Analyze to update from: the next Analyze runs a full pass. The
// returned Result is owned by the engine and overwritten by the next
// query — clone whatever must outlive it.
func (inc *Incremental) Full(t *ctree.Tree, inSlew float64, ov *Overrides, tr *obs.Tracer) (*Result, error) {
	inc.Invalidate()
	res, err := inc.pass(t, inSlew, ov, tr)
	if err != nil {
		return nil, err
	}
	inc.stats.FullRuns++
	inc.stats.NodeVisits += int64(2 * len(t.Nodes))
	return res, nil
}

// Stats returns the run counters accumulated so far.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// Invalidate drops all cached state; the next Analyze runs full. Call it
// after edits that cannot be attributed to specific nodes.
func (inc *Incremental) Invalidate() {
	inc.valid = false
	inc.clearPending()
}

// Touch reports that node v was edited (rule, edge length, buffer
// index, or — for an unbuffered leaf — its sink's pin cap) since the
// last Analyze. Touching an unedited node is harmless;
// out-of-range nodes invalidate the cache (the tree evidently changed
// shape). Reverted edits need no Touch if the value is back to what the
// last analysis saw — Touch-then-revert is also fine, the update just
// finds nothing dirty.
func (inc *Incremental) Touch(v int) {
	if !inc.valid {
		return
	}
	if v < 0 || v >= inc.n {
		inc.Invalidate()
		return
	}
	inc.touched = true
	if !inc.passOnly && !inc.pendingMark[v] {
		inc.pendingMark[v] = true
		inc.pending = append(inc.pending, v)
	}
}

// Analyze evaluates the tree at nominal parasitics, incrementally when
// possible. The returned Result is owned by the engine and overwritten by
// the next query, like Full's. Overrides are not supported on the
// incremental path; corner and variation analysis use Full.
func (inc *Incremental) Analyze(t *ctree.Tree, inSlew float64) (*Result, error) {
	if inc.ctx != nil {
		if err := inc.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if !inc.valid || t != inc.tree || len(t.Nodes) != inc.n || !(inSlew > 0) {
		return inc.full(t, inSlew)
	}
	if !inc.touched && inSlew == inc.lastSlew {
		inc.stats.CachedRuns++
		return &inc.res, nil
	}
	if inc.passOnly {
		return inc.full(t, inSlew)
	}
	if !inc.update(t, inSlew) {
		inc.stats.Fallbacks++
		return inc.full(t, inSlew)
	}
	inc.stats.IncRuns++
	inc.lastSlew = inSlew
	inc.clearPending()
	return &inc.res, nil
}

// full runs a nominal from-scratch pass and refreshes every incremental
// cache.
func (inc *Incremental) full(t *ctree.Tree, inSlew float64) (*Result, error) {
	res, err := inc.Full(t, inSlew, nil, nil)
	if err != nil {
		return nil, err
	}
	inc.capture(t, inSlew)
	return res, nil
}

// capture snapshots the per-node state the update path diffs against. It
// runs right after Full, which has already cleared the pending marks
// (they may index the old tree, so they must go before resizing). An
// engine from NewParallel never updates, so it keeps only the node count
// Touch checks against.
func (inc *Incremental) capture(t *ctree.Tree, inSlew float64) {
	n := len(t.Nodes)
	inc.n, inc.lastSlew = n, inSlew
	if inc.passOnly {
		inc.valid = true
		return
	}
	// The marks are all clear between queries, over the whole capacity,
	// so resized arrays need no clearing.
	inc.pendingMark = slices.Grow(inc.pendingMark[:0], n)[:n]
	inc.bufIdx = slices.Grow(inc.bufIdx[:0], n)[:n]
	inc.depth = slices.Grow(inc.depth[:0], n)[:n]
	inc.stageSize = slices.Grow(inc.stageSize[:0], n)[:n]
	inc.capDirty = slices.Grow(inc.capDirty[:0], n)[:n]
	inc.delayDirty = slices.Grow(inc.delayDirty[:0], n)[:n]
	inc.mode = slices.Grow(inc.mode[:0], n)[:n]
	drv := inc.drv
	for i := range t.Nodes {
		inc.bufIdx[i] = t.Nodes[i].BufIdx
		inc.stageSize[i] = 0
	}
	// Depth needs parents before children; node order in a ctree is not
	// guaranteed topological, so walk from the root.
	w := append(inc.walk[:0], t.Root)
	inc.depth[t.Root] = 0
	for len(w) > 0 {
		v := w[len(w)-1]
		w = w[:len(w)-1]
		for _, k := range t.Nodes[v].Kids {
			if k != ctree.NoNode {
				inc.depth[k] = inc.depth[v] + 1
				w = append(w, k)
			}
		}
	}
	inc.walk = w[:0]
	for i := range t.Nodes {
		if i != t.Root {
			inc.stageSize[drv[i]]++
		}
	}
	inc.valid = true
}

func (inc *Incremental) clearPending() {
	inc.touched = false
	for _, v := range inc.pending {
		inc.pendingMark[v] = false
	}
	inc.pending = inc.pending[:0]
}

func (inc *Incremental) clearDirty() {
	for _, d := range inc.capList {
		inc.capDirty[d] = false
	}
	inc.capList = inc.capList[:0]
	for _, d := range inc.delayList {
		inc.delayDirty[d] = false
	}
	inc.delayList = inc.delayList[:0]
	for _, d := range inc.started {
		inc.mode[d] = modeNone
	}
	inc.started = inc.started[:0]
}

func (inc *Incremental) markCap(d int) {
	if !inc.capDirty[d] {
		inc.capDirty[d] = true
		inc.capList = append(inc.capList, d)
	}
}

func (inc *Incremental) markDelay(d int) {
	if !inc.delayDirty[d] {
		inc.delayDirty[d] = true
		inc.delayList = append(inc.delayList, d)
	}
}

// update applies the pending edits and the input slew to the cached
// analysis. It returns false when they call for a full re-analysis
// (structural change, out-of-range field, or dirty region over budget);
// partially written buffers are safe because the full pass overwrites
// everything.
func (inc *Incremental) update(t *ctree.Tree, inSlew float64) bool {
	defer inc.clearDirty()
	te, lib := inc.te, inc.lib
	res := &inc.res
	n := inc.n
	// A full pass costs 2n node visits, so that is the break-even budget:
	// past it an update stops paying for itself. The pre-check below
	// catches most oversized dirty sets before any work; this bounds the
	// walks themselves.
	budget := 2 * n
	if budget < 32 {
		budget = 32
	}
	visits := 0

	wireDirty, bufDirty, sinkDirty := false, false, false
	for _, v := range inc.pending {
		nd := &t.Nodes[v]
		if (inc.bufIdx[v] == ctree.NoBuf) != (nd.BufIdx == ctree.NoBuf) {
			return false // buffer added or removed: stage structure changed
		}
		// A sink pin-cap edit changes the endpoint cap an unbuffered leaf
		// presents to its stage — exactly the L[v] the full pass reads.
		if nd.BufIdx == ctree.NoBuf && nd.SinkIdx != ctree.NoSink && t.IsLeaf(v) {
			if c := t.Sinks[nd.SinkIdx].Cap; c != inc.endCap[v] {
				inc.endCap[v] = c
				sinkDirty = true
				inc.markCap(inc.drv[v])
			}
		}
		if nd.Parent != ctree.NoNode {
			if nd.Rule < 0 || nd.Rule >= te.NumRules() {
				return false // full pass reports the error
			}
			if inc.lenValid && (nd.EdgeLen != inc.wlen[v] || nd.Rule != inc.rule[v]) {
				inc.wlen[v], inc.rule[v] = nd.EdgeLen, nd.Rule
				inc.wireStale = true
			}
			er := te.WireR(nd.EdgeLen, nd.Rule)
			ec := te.WireC(nd.EdgeLen, nd.Rule)
			edited := false
			if er != inc.edgeR[v] {
				inc.edgeR[v] = er
				edited = true
			}
			if ec != inc.edgeC[v] {
				inc.edgeC[v] = ec
				wireDirty = true
				edited = true
			}
			if edited {
				inc.markCap(inc.drv[v])
			}
		}
		if nd.BufIdx != inc.bufIdx[v] {
			if nd.BufIdx < 0 || nd.BufIdx >= len(lib.Buffers) {
				return false // full pass reports the error
			}
			inc.endCap[v] = lib.Buffers[nd.BufIdx].InputCap
			inc.bufIdx[v] = nd.BufIdx
			bufDirty = true
			if nd.Parent != ctree.NoNode {
				inc.markCap(inc.drv[v]) // new input cap loads the parent stage
			} else {
				// Root resize: no parent stage rebuild walks the root, so
				// capNode refreshes its own lumped cap here. The stage
				// load it also sums comes out as stored, or, when the
				// root stage is cap-dirty, that stage's rebuild sums it
				// again.
				inc.capNode(t, v)
			}
			inc.markDelay(v) // its own stage re-reads the NLDM tables
		}
	}

	// Cheap lower bound before doing any stage work: every dirty stage
	// must be walked at least once in each phase, and a new input slew
	// reaches every node.
	newSlew := inSlew != inc.lastSlew
	est := 0
	if newSlew {
		est = n
	}
	for _, d := range inc.capList {
		est += 2 * inc.stageSize[d]
	}
	for _, d := range inc.delayList {
		if !inc.capDirty[d] {
			est += inc.stageSize[d]
		}
	}
	if est > budget {
		return false
	}

	// A new input slew is a new transition at the root pin, folded into
	// the summary like any other pin's: the root stage is then timed in
	// full, as after a root resize. The pin is one visit.
	if newSlew {
		visits++
		inc.noteSlew(res.Slew[t.Root], inSlew)
		res.Slew[t.Root] = inSlew
		inc.markDelay(t.Root)
	}

	// Cap phase: rebuild each cap-dirty stage bottom-up with the full
	// pass's own step, capNode. Effects cannot escape the stage — buffer
	// inputs terminate the downstream-cap sum — so no upstream chain walk
	// is needed beyond the owning stage itself.
	for _, d := range inc.capList {
		stage := inc.stageBuf[:0]
		w := inc.walk[:0]
		for _, k := range t.Nodes[d].Kids {
			if k != ctree.NoNode {
				w = append(w, k)
			}
		}
		for len(w) > 0 {
			v := w[len(w)-1]
			w = w[:len(w)-1]
			stage = append(stage, v)
			if t.Nodes[v].BufIdx == ctree.NoBuf {
				for _, k := range t.Nodes[v].Kids {
					if k != ctree.NoNode {
						w = append(w, k)
					}
				}
			}
		}
		inc.walk = w[:0]
		visits += len(stage)
		if visits > budget {
			inc.stageBuf = stage[:0]
			inc.stats.NodeVisits += int64(visits) // wasted work still counts
			return false
		}
		// Children before parents: reversed pre-order, then the driver,
		// whose capNode sums the stage's load. On a buffered endpoint
		// capNode also re-sums the load of the stage the endpoint drives,
		// from caps this update left alone (the stored bits again) or from
		// caps whose own rebuild in capList sums that load again; on the
		// driver it rewrites the lumped cap its parent stage's rebuild
		// writes.
		for i := len(stage) - 1; i >= 0; i-- {
			inc.capNode(t, stage[i])
		}
		inc.capNode(t, d)
		inc.stageBuf = stage[:0]
	}

	// Timing phase: one depth-first walk from each dirty stage driver no
	// earlier walk reached, shallowest first. A driver is strictly
	// shallower than any stage it feeds, and a walk times parents before
	// children, so a stage always reads input timing the stages above it
	// have committed; a stage the walk entered has a mode, so none is
	// timed twice. The walk stops at every clean buffered endpoint whose
	// values came out bitwise unchanged; a dirty stage below one keeps its
	// input timing, and the loop starts its own walk.
	order := append(append(inc.order[:0], inc.capList...), inc.delayList...)
	slices.SortFunc(order, func(a, b int) int { return inc.depth[a] - inc.depth[b] })
	inc.order = order
	for _, d := range order {
		if inc.mode[d] != modeNone {
			continue // entered by an earlier walk, or listed twice
		}
		w := inc.enter(t, inc.walk[:0], d, modeFull)
		for len(w) > 0 {
			v := w[len(w)-1]
			w = w[:len(w)-1]
			visits++
			if visits > budget {
				inc.walk = w[:0]
				inc.stats.NodeVisits += int64(visits) // wasted work still counts
				return false
			}
			nd := &t.Nodes[v]
			var arr, sl float64
			if s := inc.drv[v]; inc.mode[s] == modeFull {
				arr, sl = inc.wireTiming(t, v)
			} else {
				arr, sl = inc.stageOutArr[s]+inc.elm[v], res.Slew[v]
			}
			oldArr, oldSlew := res.Arrival[v], res.Slew[v]
			res.Arrival[v], res.Slew[v] = arr, sl
			if nd.SinkIdx != ctree.NoSink {
				inc.noteArrival(oldArr, arr)
			}
			inc.noteSlew(oldSlew, sl)
			switch {
			case nd.BufIdx == ctree.NoBuf:
				for _, k := range nd.Kids {
					if k != ctree.NoNode {
						w = append(w, k)
					}
				}
			case sl != oldSlew || inc.capDirty[v] || inc.delayDirty[v]:
				w = inc.enter(t, w, v, modeFull)
			case arr != oldArr:
				w = inc.enter(t, w, v, modeArrival)
			}
		}
		inc.walk = w[:0]
	}
	inc.stats.NodeVisits += int64(visits)

	// Inventory sums: re-sum in node-index order (the full pass's order)
	// rather than patching deltas — float addition is not associative, and
	// the contract is bitwise equality. One add per term, over contiguous
	// arrays; a parentless node's edgeC is 0 and adds nothing.
	if wireDirty {
		wc := 0.0
		for _, c := range inc.edgeC {
			wc += c
		}
		res.WireCap = wc
	}
	if bufDirty {
		// A buffer cannot appear or vanish here (that falls back), so the
		// buffered nodes are still exactly the Drivers, in node order.
		inCap, intCap, leak := 0.0, 0.0, 0.0
		for _, d := range res.Drivers {
			b := &lib.Buffers[inc.bufIdx[d]]
			inCap += b.InputCap
			intCap += b.InternalCap
			leak += b.Leakage
		}
		res.BufInCap, res.BufIntCap, res.LeakageTot = inCap, intCap, leak
	}
	if sinkDirty {
		// The unbuffered sink leaves carry their pin caps; any other
		// unbuffered sink node is internal, and its endpoint cap is 0.
		sc := 0.0
		for _, v := range res.sinkNodes {
			if inc.bufIdx[v] == ctree.NoBuf {
				sc += inc.endCap[v]
			}
		}
		res.SinkCap = sc
	}
	return true
}

// enter starts the stage buffered node d drives, in mode m, for the
// update's walk, and pushes the stage's first nodes onto the stack w.
func (inc *Incremental) enter(t *ctree.Tree, w []int, d int, m uint8) []int {
	inc.mode[d] = m
	inc.started = append(inc.started, d)
	if m == modeFull {
		inc.startStage(t, d)
	} else {
		// Arrival-only: input slew, load, and buffer unchanged, so the
		// cached delay is exactly what DelayAt would return.
		inc.stageOutArr[d] = inc.res.Arrival[d] + inc.stageDelay[d]
	}
	for _, k := range t.Nodes[d].Kids {
		if k != ctree.NoNode {
			w = append(w, k)
		}
	}
	return w
}
