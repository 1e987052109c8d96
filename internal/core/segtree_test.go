package core

import (
	"math"
	"math/rand"
	"testing"
)

// newArrTree returns a fresh tree over arr.
func newArrTree(arr []float64) *arrTree {
	t := &arrTree{}
	t.reset(arr)
	return t
}

// Add shifts arrivals in [lo, hi] (inclusive sink positions) by delta,
// one root-to-leaf descent per call: the range-add the optimizer made once
// per moved endpoint before AddAll batched them, kept as AddAll's
// reference.
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

func TestArrTreeBasics(t *testing.T) {
	at := newArrTree([]float64{3, 1, 4, 1, 5})
	if at.Min() != 1 || at.Max() != 5 {
		t.Fatalf("min/max = %g/%g", at.Min(), at.Max())
	}
	if at.Skew() != 4 {
		t.Fatalf("skew = %g", at.Skew())
	}
	at.Add(1, 3, 10) // [3, 11, 14, 11, 5]
	if at.Min() != 3 || at.Max() != 14 {
		t.Fatalf("after add: min/max = %g/%g", at.Min(), at.Max())
	}
	at.Add(1, 3, -10) // back
	if at.Skew() != 4 {
		t.Fatalf("revert failed: skew = %g", at.Skew())
	}
}

func TestArrTreeEmptyAndSingle(t *testing.T) {
	empty := newArrTree(nil)
	if empty.Skew() != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty tree should report zeros")
	}
	empty.Add(0, 0, 5) // must not panic
	one := newArrTree([]float64{7})
	if one.Skew() != 0 || one.Min() != 7 || one.Max() != 7 {
		t.Error("single-element tree wrong")
	}
	one.Add(0, 0, 3)
	if one.Max() != 10 {
		t.Error("single-element add wrong")
	}
}

func TestArrTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = rng.Float64() * 100
		}
		at := newArrTree(append([]float64(nil), ref...))
		for op := 0; op < 100; op++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			d := (rng.Float64() - 0.5) * 20
			at.Add(lo, hi, d)
			for i := lo; i <= hi; i++ {
				ref[i] += d
			}
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, v := range ref {
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
			}
			if math.Abs(at.Min()-mn) > 1e-9 || math.Abs(at.Max()-mx) > 1e-9 {
				t.Fatalf("trial %d op %d: tree %g/%g vs ref %g/%g", trial, op, at.Min(), at.Max(), mn, mx)
			}
		}
	}
}

func TestArrTreeInvertedRangeNoop(t *testing.T) {
	at := newArrTree([]float64{1, 2, 3})
	at.Add(2, 1, 99)
	if at.Max() != 3 {
		t.Error("inverted range must be a no-op")
	}
}

// refArrTree is arrTree with math.Min and math.Max in pull: the reference
// for the builtin min and max the optimizer's tree uses.
type refArrTree struct {
	n            int
	mn, mx, lazy []float64
}

func newRefArrTree(arr []float64) *refArrTree {
	n := len(arr)
	t := &refArrTree{n: n, mn: make([]float64, 4*n), mx: make([]float64, 4*n), lazy: make([]float64, 4*n)}
	var build func(node, lo, hi int)
	build = func(node, lo, hi int) {
		if lo == hi {
			t.mn[node], t.mx[node] = arr[lo], arr[lo]
			return
		}
		mid := (lo + hi) / 2
		build(2*node, lo, mid)
		build(2*node+1, mid+1, hi)
		t.pull(node)
	}
	if n > 0 {
		build(1, 0, n-1)
	}
	return t
}

func (t *refArrTree) pull(node int) {
	t.mn[node] = math.Min(t.mn[2*node], t.mn[2*node+1])
	t.mx[node] = math.Max(t.mx[2*node], t.mx[2*node+1])
}

func (t *refArrTree) Add(lo, hi int, delta float64) {
	if t.n == 0 || lo > hi || delta == 0 {
		return
	}
	var add func(node, nlo, nhi int)
	add = func(node, nlo, nhi int) {
		if hi < nlo || nhi < lo {
			return
		}
		if lo <= nlo && nhi <= hi {
			t.mn[node] += delta
			t.mx[node] += delta
			t.lazy[node] += delta
			return
		}
		if l := t.lazy[node]; l != 0 {
			for _, c := range [2]int{2 * node, 2*node + 1} {
				t.mn[c] += l
				t.mx[c] += l
				t.lazy[c] += l
			}
			t.lazy[node] = 0
		}
		mid := (nlo + nhi) / 2
		add(2*node, nlo, mid)
		add(2*node+1, mid+1, nhi)
		t.pull(node)
	}
	add(1, 0, t.n-1)
}

// sameBits reports whether two float slices hold identical bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestArrTreeMatchesMathMinMax: the tree built on the min and max builtins
// holds the same bits as the math.Min/math.Max reference in every node
// after every Add, and a tree reused through reset reads the same extremes
// as a fresh one. Arrivals mix signed zeros, infinities and repeated
// values with random ones, and half the adds are reverted at once, as the
// downgrade loop reverts a rejected candidate's shifts. NaN is left out:
// there the two differ (math.Min(-Inf, NaN) is -Inf, min(-Inf, NaN) is
// NaN, and math returns its own NaN), and arrivals are never NaN.
func TestArrTreeMatchesMathMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e-12, -1e-12}
	reused := &arrTree{}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		arr := make([]float64, n)
		for i := range arr {
			switch r := rng.Intn(10); {
			case r == 0 && trial%4 == 0:
				arr[i] = special[rng.Intn(len(special))]
			case r < 3:
				arr[i] = float64(rng.Intn(4)) * 1e-12
			default:
				arr[i] = rng.NormFloat64() * 1e-10
			}
		}
		at, ref := newArrTree(arr), newRefArrTree(arr)
		reused.reset(arr)
		check := func(op int) {
			t.Helper()
			if !sameBits(at.mn, ref.mn) || !sameBits(at.mx, ref.mx) || !sameBits(at.lazy, ref.lazy) {
				t.Fatalf("trial %d op %d: tree differs from the math.Min/math.Max reference", trial, op)
			}
			if !sameBits([]float64{reused.Min(), reused.Max(), reused.Skew()}, []float64{at.Min(), at.Max(), at.Skew()}) {
				t.Fatalf("trial %d op %d: reused tree reads %g/%g, fresh %g/%g", trial, op, reused.Min(), reused.Max(), at.Min(), at.Max())
			}
		}
		check(-1)
		for op := 0; op < 200; op++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			d := rng.NormFloat64() * 1e-11
			at.Add(lo, hi, d)
			ref.Add(lo, hi, d)
			reused.Add(lo, hi, d)
			check(op)
			if rng.Intn(2) == 0 {
				at.Add(lo, hi, -d)
				ref.Add(lo, hi, -d)
				reused.Add(lo, hi, -d)
				check(op)
			}
		}
	}
}

// randomShifts returns a batch AddAll accepts over n positions: disjoint
// ascending non-empty ranges with non-zero deltas, from none up to all n
// single positions. Ranges are often adjacent, and often one position or
// the whole tree, so ranges meet at and straddle node midpoints.
func randomShifts(rng *rand.Rand, n int) []shift {
	var out []shift
	for lo := rng.Intn(2); lo < n; {
		hi := lo
		switch r := rng.Intn(4); {
		case r == 0 && lo == 0 && rng.Intn(8) == 0:
			hi = n - 1
		case r < 2:
			hi = lo + rng.Intn(min(n-lo, 1+n/4))
		}
		d := rng.NormFloat64() * 1e-11
		if rng.Intn(6) == 0 {
			d = float64(1+rng.Intn(3)) * 1e-12
		}
		out = append(out, shift{lo, hi, d})
		lo = hi + 1 + rng.Intn(3)*rng.Intn(2)
	}
	return out
}

// TestAddAllMatchesAdds: one AddAll leaves every min, max and lazy entry
// with the bits the same shifts applied one Add at a time give, on trees
// of 1–300 positions. Half the batches are reverted at once with the
// negated deltas, as the downgrade loop reverts a rejected candidate, so
// the rounding residue of an apply and its revert, which later skew
// checks read, is compared too.
func TestAddAllMatchesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	batches, multi := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		if trial < 4 {
			n = 1 + trial
		}
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = rng.NormFloat64() * 1e-10
		}
		batched, single := newArrTree(arr), newArrTree(arr)
		check := func(op int, what string) {
			t.Helper()
			if !sameBits(batched.mn, single.mn) || !sameBits(batched.mx, single.mx) || !sameBits(batched.lazy, single.lazy) {
				t.Fatalf("trial %d (n=%d) op %d %s: AddAll differs from the Add sequence", trial, n, op, what)
			}
		}
		for op := 0; op < 80; op++ {
			sh := randomShifts(rng, n)
			apply := func(sign float64) {
				batch := make([]shift, len(sh))
				for i, s := range sh {
					batch[i] = shift{s.lo, s.hi, sign * s.d}
					single.Add(s.lo, s.hi, sign*s.d)
				}
				batched.AddAll(batch)
			}
			apply(1)
			check(op, "apply")
			if rng.Intn(2) == 0 {
				apply(-1)
				check(op, "revert")
			}
			batches++
			if len(sh) > 1 {
				multi++
			}
		}
	}
	if multi < batches/2 {
		t.Fatalf("only %d of %d batches hold more than one shift", multi, batches)
	}
}
