package sta

import (
	"context"
	"sync"
	"sync/atomic"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/tech"
)

// NewParallel returns a timing engine whose full passes walk disjoint
// subtrees of the tree on up to workers goroutines (the caller's among
// them), and which answers every query with pending edits by such a pass
// instead of a dirty-region update. It suits a caller whose edits dirty
// most of the tree between queries, like the hierarchical flow's global
// balance, where an update costs what a full pass costs. Results are
// bitwise those of NewIncremental's engine at any worker count; with one
// worker the pass is that engine's.
//
// ctx bounds the engine's work: once it is done, Analyze returns its
// error before doing any, and a pass it interrupts returns the error with
// the engine invalidated. Every goroutine a pass starts has ended when
// the pass returns.
//
// The engine splits a tree into subtrees on its first pass over it and
// keeps the split while the tree and its node count stay the same, so
// the tree's parent and child links must not be rewired between queries.
func NewParallel(ctx context.Context, te *tech.Tech, lib *cell.Library, workers int) *Incremental {
	inc := NewIncremental(te, lib)
	inc.ctx = ctx
	inc.workers = max(workers, 1)
	inc.passOnly = true
	if inc.workers > 1 {
		inc.stacks = make([]walkStacks, inc.workers-1)
		c := &crew{inc: inc}
		c.start = c.loop
		inc.crew = c
	}
	return inc
}

// crew is what a started worker runs: the engine's loop, bound once, so
// starting a worker allocates nothing. It lives apart from the engine so
// that the engine itself need not escape to the heap where one worker
// walks alone.
type crew struct {
	inc   *Incremental
	start func() // loop
	wg    sync.WaitGroup
}

// loop is a started worker's body.
func (c *crew) loop() {
	defer c.wg.Done()
	c.inc.drain(int(c.inc.ids.Add(1)))
}

// Phases of a full pass that fan out over the workers.
const (
	phaseWire uint8 = iota // per-edge parasitics and endpoint caps, by node-index chunk
	phaseCap               // lumped caps, by subtree
	phaseTime              // timing, by subtree
)

// pool is the full pass's split of the tree and the workers that walk it.
type pool struct {
	ctx      context.Context // nil: never cancelled
	workers  int             // 0 or 1: the caller walks alone
	passOnly bool            // every query with pending edits runs a full pass
	ov       *Overrides      // the running pass's overrides

	// The split: cuts are the roots of disjoint subtrees the workers walk
	// whole, top the nodes above them, in pre-order. splitTree and splitN
	// name the tree it was made for.
	cuts, top []int
	splitTree *ctree.Tree
	splitN    int

	// Traversal stacks: the caller's, and one per started worker.
	stack0 walkStacks
	stacks []walkStacks

	// The running phase. Workers take items through next; the caller is
	// worker 0 and the goroutines it starts number themselves through ids.
	phase     uint8
	items     int
	chunk     int // nodes per phaseWire item
	next, ids atomic.Int64
	crew      *crew // nil with one worker
}

// stacksOf returns worker w's traversal stacks.
func (inc *Incremental) stacksOf(w int) *walkStacks {
	if w == 0 {
		return &inc.stack0
	}
	return &inc.stacks[w-1]
}

// walkStacks are one worker's traversal stacks, reused so the tree walks
// stay allocation-free (ctree's PostOrder/PreOrder allocate theirs per
// call).
type walkStacks struct {
	post []postFrame
	pre  []int
}

// split divides t into the subtrees the workers walk and the part above
// them. With one worker it is the root alone. Otherwise every maximal
// subtree of at most n/(8·workers) nodes is cut off, so no one subtree
// holds more than an eighth of a worker's share; the nodes above them
// form the top part. A tree too small for any cut is all top part. The
// split is kept while the engine sees the same tree with the same node
// count.
func (inc *Incremental) split(t *ctree.Tree) {
	if inc.workers <= 1 {
		return // see subtrees
	}
	n := len(t.Nodes)
	if t == inc.splitTree && n == inc.splitN {
		return
	}
	// Subtree sizes, children before parents, kept in drv: the pass's
	// timing walk rewrites every entry of it afterwards.
	size := inc.drv
	post := append(inc.stack0.post[:0], postFrame{t.Root, 0})
	for len(post) > 0 {
		f := &post[len(post)-1]
		advanced := false
		for f.kid < 2 {
			k := t.Nodes[f.node].Kids[f.kid]
			f.kid++
			if k != ctree.NoNode {
				post = append(post, postFrame{k, 0})
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		v := f.node
		post = post[:len(post)-1]
		size[v] = 1
		for _, k := range t.Nodes[v].Kids {
			if k != ctree.NoNode {
				size[v] += size[k]
			}
		}
	}
	inc.stack0.post = post[:0]
	limit := n / (8 * inc.workers)
	cuts, top := inc.cuts[:0], inc.top[:0]
	pre := append(inc.stack0.pre[:0], t.Root)
	for len(pre) > 0 {
		v := pre[len(pre)-1]
		pre = pre[:len(pre)-1]
		if size[v] <= limit {
			cuts = append(cuts, v)
			continue
		}
		top = append(top, v)
		for _, k := range t.Nodes[v].Kids {
			if k != ctree.NoNode {
				pre = append(pre, k)
			}
		}
	}
	inc.stack0.pre = pre[:0]
	inc.cuts, inc.top = cuts, top
	inc.splitTree, inc.splitN = t, n
}

// subtrees returns the number of subtrees in the split; subtree returns
// the root of the i-th. With one worker the split is the root alone.
func (inc *Incremental) subtrees() int {
	if inc.workers <= 1 {
		return 1
	}
	return len(inc.cuts)
}

func (inc *Incremental) subtree(i int) int {
	if inc.workers <= 1 {
		return inc.tree.Root
	}
	return inc.cuts[i]
}

// chunks sets the phaseWire chunk size for an n-node tree and returns the
// chunk count: one chunk with one worker, four per worker otherwise.
func (inc *Incremental) chunks(n int) int {
	k := 1
	if inc.workers > 1 {
		k = 4 * inc.workers
	}
	inc.chunk = max((n+k-1)/k, 1)
	return (n + inc.chunk - 1) / inc.chunk
}

// fanOut runs items of the given phase of the pass over inc.tree: on the
// caller alone with one worker (or one item), else on up to inc.workers
// goroutines, the caller included. It returns when every goroutine it
// started has ended; with ctx done, remaining items are skipped and ctx's
// error returned.
func (inc *Incremental) fanOut(phase uint8, items int) error {
	inc.phase, inc.items = phase, items
	inc.next.Store(0)
	if w := min(inc.workers, items); w <= 1 {
		inc.drain(0)
	} else {
		c := inc.crew
		inc.ids.Store(0)
		c.wg.Add(w - 1)
		for range w - 1 {
			go c.start()
		}
		inc.drain(0)
		c.wg.Wait()
	}
	if inc.ctx != nil {
		return inc.ctx.Err()
	}
	return nil
}

// drain runs the phase's items as worker w until none is left or ctx is
// done.
func (inc *Incremental) drain(w int) {
	t := inc.tree
	for {
		if inc.ctx != nil && inc.ctx.Err() != nil {
			return
		}
		i := int(inc.next.Add(1)) - 1
		if i >= inc.items {
			return
		}
		switch inc.phase {
		case phaseWire:
			inc.wireChunk(t, i*inc.chunk, min((i+1)*inc.chunk, len(t.Nodes)))
		case phaseCap:
			inc.capSubtree(t, w, inc.subtree(i))
		case phaseTime:
			inc.timeSubtree(t, w, inc.subtree(i))
		}
	}
}
