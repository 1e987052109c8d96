package core

// arrTree is a lazy segment tree over sink arrival times supporting
// range-add (shift a whole subtree of sinks) and O(1) global min/max
// queries. The downgrade loop uses it to check the *exact* global skew
// impact of a candidate rule change in O(log n) before accepting it —
// the piece that keeps stage-local greedy decisions globally sound.
type arrTree struct {
	n    int
	mn   []float64
	mx   []float64
	lazy []float64
}

// reset builds the tree over the given per-sink arrivals (in DFS order,
// so any subtree of the clock tree is a contiguous range), in the storage
// of its previous contents. Build writes every min and max it reads, so
// only the pending shifts need clearing: the rebuilt tree equals a fresh
// one bit for bit.
func (t *arrTree) reset(arr []float64) {
	n := len(arr)
	if cap(t.mn) < 4*n {
		t.mn = make([]float64, 4*n)
		t.mx = make([]float64, 4*n)
		t.lazy = make([]float64, 4*n)
	}
	t.n = n
	t.mn, t.mx, t.lazy = t.mn[:4*n], t.mx[:4*n], t.lazy[:4*n]
	clear(t.lazy)
	if n > 0 {
		t.build(1, 0, n-1, arr)
	}
}

func (t *arrTree) build(node, lo, hi int, arr []float64) {
	if lo == hi {
		t.mn[node] = arr[lo]
		t.mx[node] = arr[lo]
		return
	}
	mid := (lo + hi) / 2
	t.build(2*node, lo, mid, arr)
	t.build(2*node+1, mid+1, hi, arr)
	t.pull(node)
}

// pull recomputes node from its children. The min and max builtins
// give math.Min's and math.Max's bits on every input without a NaN; the
// optimizer's arrivals are finite.
func (t *arrTree) pull(node int) {
	t.mn[node] = min(t.mn[2*node], t.mn[2*node+1])
	t.mx[node] = max(t.mx[2*node], t.mx[2*node+1])
}

func (t *arrTree) push(node int) {
	if l := t.lazy[node]; l != 0 {
		for _, c := range [2]int{2 * node, 2*node + 1} {
			t.mn[c] += l
			t.mx[c] += l
			t.lazy[c] += l
		}
		t.lazy[node] = 0
	}
}

// shift is one range-add of a batch: arrivals at sink positions [lo, hi]
// (inclusive) move by d.
type shift struct {
	lo, hi int
	d      float64
}

// AddAll applies a batch of range-adds in one descent. The shifts must be
// non-empty ranges, pairwise disjoint and in ascending order, each with a
// non-zero delta; a stage's endpoint spans are all three.
//
// The tree ends bit for bit where the same shifts applied one range-add
// at a time, in order, would leave it, lazy values included. A node
// covered by one shift overlaps no other, so it takes that shift's add
// exactly as a lone range-add gives it. A partially covered node is
// pushed before any child changes, once; no later shift covers it, so its
// lazy value stays zero for the rest of the batch, as it does after the
// first of the single adds that descend through it. And it is pulled
// after its children's last change, which is the pull that survives the
// sequence.
func (t *arrTree) AddAll(shifts []shift) {
	if t.n == 0 || len(shifts) == 0 {
		return
	}
	t.addAll(1, 0, t.n-1, shifts)
}

// addAll applies the shifts, every one of which overlaps [nlo, nhi], to
// the subtree at node.
func (t *arrTree) addAll(node, nlo, nhi int, shifts []shift) {
	if s := shifts[0]; len(shifts) == 1 && s.lo <= nlo && nhi <= s.hi {
		t.mn[node] += s.d
		t.mx[node] += s.d
		t.lazy[node] += s.d
		return
	}
	t.push(node)
	mid := (nlo + nhi) / 2
	// The left child gets the shifts starting at or before mid, the right
	// child those ending after it; one shift may straddle mid and go to
	// both.
	left := 0
	for left < len(shifts) && shifts[left].lo <= mid {
		left++
	}
	right := 0
	for right < len(shifts) && shifts[right].hi <= mid {
		right++
	}
	if left > 0 {
		t.addAll(2*node, nlo, mid, shifts[:left])
	}
	if right < len(shifts) {
		t.addAll(2*node+1, mid+1, nhi, shifts[right:])
	}
	t.pull(node)
}

// Skew returns the current global max−min arrival.
func (t *arrTree) Skew() float64 {
	if t.n == 0 {
		return 0
	}
	return t.mx[1] - t.mn[1]
}

// Min returns the global minimum arrival.
func (t *arrTree) Min() float64 {
	if t.n == 0 {
		return 0
	}
	return t.mn[1]
}

// Max returns the global maximum arrival.
func (t *arrTree) Max() float64 {
	if t.n == 0 {
		return 0
	}
	return t.mx[1]
}
