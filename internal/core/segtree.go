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

// Add shifts arrivals in [lo, hi] (inclusive sink positions) by delta.
func (t *arrTree) Add(lo, hi int, delta float64) {
	if t.n == 0 || lo > hi || delta == 0 {
		return
	}
	t.add(1, 0, t.n-1, lo, hi, delta)
}

func (t *arrTree) add(node, nlo, nhi, lo, hi int, delta float64) {
	if hi < nlo || nhi < lo {
		return
	}
	if lo <= nlo && nhi <= hi {
		t.mn[node] += delta
		t.mx[node] += delta
		t.lazy[node] += delta
		return
	}
	t.push(node)
	mid := (nlo + nhi) / 2
	t.add(2*node, nlo, mid, lo, hi, delta)
	t.add(2*node+1, mid+1, nhi, lo, hi, delta)
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
