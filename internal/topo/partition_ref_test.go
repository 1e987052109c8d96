package topo

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
)

// partitionRef is Partition as it was before selection replaced the
// sort: every level sorts the whole piece.
func partitionRef(sinks []ctree.Sink, maxSinks int) [][]int {
	if len(sinks) == 0 {
		return nil
	}
	idx := make([]int, len(sinks))
	for i := range idx {
		idx[i] = i
	}
	if maxSinks <= 0 || len(sinks) <= maxSinks {
		return [][]int{idx}
	}
	var regions [][]int
	partBipartRef(sinks, idx, maxSinks, &regions)
	for _, r := range regions {
		sort.Ints(r)
	}
	return regions
}

func partBipartRef(sinks []ctree.Sink, idx []int, maxSinks int, out *[][]int) {
	if len(idx) <= maxSinks {
		region := make([]int, len(idx))
		copy(region, idx)
		*out = append(*out, region)
		return
	}
	bb := geom.NewEmptyBBox()
	for _, si := range idx {
		bb.Extend(sinks[si].Loc)
	}
	if bb.Width() >= bb.Height() {
		sort.Slice(idx, func(a, b int) bool {
			pa, pb := sinks[idx[a]].Loc, sinks[idx[b]].Loc
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return idx[a] < idx[b]
		})
	} else {
		sort.Slice(idx, func(a, b int) bool {
			pa, pb := sinks[idx[a]].Loc, sinks[idx[b]].Loc
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			return idx[a] < idx[b]
		})
	}
	mid := len(idx) / 2
	partBipartRef(sinks, idx[:mid], maxSinks, out)
	partBipartRef(sinks, idx[mid:], maxSinks, out)
}

// partitionSet is a seeded sink set of one geometric kind.
func partitionSet(kind string, n int, seed int64) []ctree.Sink {
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		var p geom.Point
		switch kind {
		case "uniform":
			p = geom.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 4000}
		case "clustered":
			c := float64(rng.Intn(5))
			p = geom.Point{X: 900*c + rng.NormFloat64()*60, Y: 500*c + rng.NormFloat64()*40}
		case "duplicate":
			p = geom.Point{X: float64(rng.Intn(6)) * 100, Y: float64(rng.Intn(3)) * 100}
		case "collinear-x":
			p = geom.Point{X: math.Round(rng.Float64() * 3000), Y: 250}
		case "collinear-y":
			p = geom.Point{X: 40, Y: math.Round(rng.Float64() * 3000)}
		case "diagonal":
			v := math.Round(rng.Float64() * 2000)
			p = geom.Point{X: v, Y: v}
		case "grid":
			side := int(math.Ceil(math.Sqrt(float64(n))))
			p = geom.Point{X: float64(i%side) * 75, Y: float64(i/side) * 75}
		case "coincident":
			p = geom.Point{X: 700, Y: 300}
		default:
			panic("unknown kind " + kind)
		}
		sinks[i] = ctree.Sink{Name: "s", Loc: p, Cap: 1e-15}
	}
	if kind == "grid" {
		rng.Shuffle(len(sinks), func(a, b int) { sinks[a], sinks[b] = sinks[b], sinks[a] })
	}
	return sinks
}

// TestPartitionMatchesReference: selection must give exactly the regions,
// in exactly the order, that sorting every level gave, including on the
// tie-heavy geometries where only the index tie-break decides a half.
func TestPartitionMatchesReference(t *testing.T) {
	kinds := []string{"uniform", "clustered", "duplicate", "collinear-x", "collinear-y", "diagonal", "grid", "coincident"}
	for _, kind := range kinds {
		for _, n := range []int{1, 2, 3, 17, 100, 513, 2000, 4097} {
			sinks := partitionSet(kind, n, int64(n)*7+int64(len(kind)))
			for _, maxSinks := range []int{0, 1, 2, 3, 5, 8, 13, 31, 64, 100, 255, 256, 1000, 2048} {
				got := Partition(sinks, maxSinks)
				want := partitionRef(sinks, maxSinks)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d maxSinks=%d: %d regions differ from the reference's %d",
						kind, n, maxSinks, len(got), len(want))
				}
			}
		}
	}
}

// antiQuick is McIlroy's adversary ("A killer adversary for quicksort",
// Software: Practice and Experience, 1999). Elements start as gas, larger
// than every valued element. When two gas elements meet, the one that
// looks like the pivot is frozen at the next smallest value, which makes
// every median-of-three pivot as bad as the comparisons made so far allow.
type antiQuick struct {
	val       []int
	gas       int
	solid     int
	candidate int
	compares  int
}

func newAntiQuick(n int) *antiQuick {
	a := &antiQuick{val: make([]int, n), gas: n, candidate: -1}
	for i := range a.val {
		a.val[i] = a.gas
	}
	return a
}

func (a *antiQuick) cmp(x, y int) int {
	a.compares++
	if a.val[x] == a.gas && a.val[y] == a.gas && x != y {
		if x == a.candidate {
			a.freeze(x)
		} else {
			a.freeze(y)
		}
	}
	if a.val[x] == a.gas {
		a.candidate = x
	} else if a.val[y] == a.gas {
		a.candidate = y
	}
	return cmp.Compare(a.val[x], a.val[y])
}

func (a *antiQuick) freeze(x int) {
	a.val[x] = a.solid
	a.solid++
}

// checkSelected asserts s[:k] holds exactly the k smallest of s.
func checkSelected[E any](t *testing.T, tag string, s []E, k int, cmp func(a, b E) int) {
	t.Helper()
	sorted := slices.Clone(s)
	slices.SortFunc(sorted, cmp)
	lower := slices.Clone(s[:k])
	slices.SortFunc(lower, cmp)
	upper := slices.Clone(s[k:])
	slices.SortFunc(upper, cmp)
	for i := range sorted {
		var e E
		if i < k {
			e = lower[i]
		} else {
			e = upper[i-k]
		}
		if cmp(e, sorted[i]) != 0 {
			t.Fatalf("%s k=%d: position %d of the selected halves differs from the sorted order", tag, k, i)
		}
	}
}

// TestSelectFuncMatchesSort checks selection against slices.SortFunc on
// sorted, reversed, organ-pipe, random and equal-coordinate inputs at
// every kind of k, and bounds its comparisons: linear on random input,
// and O(n log n) on McIlroy's adversary, which drives plain
// median-of-three quickselect quadratic.
func TestSelectFuncMatchesSort(t *testing.T) {
	const n = 4096
	logn := bits.Len(uint(n))
	rng := rand.New(rand.NewSource(5))
	inputs := map[string][]int{
		"sorted":     make([]int, n),
		"reversed":   make([]int, n),
		"organ-pipe": make([]int, n),
		"random":     rng.Perm(n),
	}
	for i := 0; i < n; i++ {
		inputs["sorted"][i] = i
		inputs["reversed"][i] = n - 1 - i
		inputs["organ-pipe"][i] = min(i, n-1-i)*2 + i%2
	}
	names := []string{"sorted", "reversed", "organ-pipe", "random"}
	for _, name := range names {
		for _, k := range []int{0, 1, 2, 7, n / 3, n / 2, n - 1, n} {
			s := slices.Clone(inputs[name])
			compares := 0
			counted := func(a, b int) int {
				compares++
				return cmp.Compare(a, b)
			}
			selectFunc(s, k, counted)
			checkSelected(t, name, s, k, cmp.Compare[int])
			if name == "random" && compares > 8*n {
				t.Errorf("random k=%d: %d comparisons for %d elements, want O(n)", k, compares, n)
			}
			if compares > 4*n*logn {
				t.Errorf("%s k=%d: %d comparisons, over 4·n·log₂n = %d", name, k, compares, 4*n*logn)
			}
		}
	}

	// Coincident sinks: only the index decides, on both axes.
	for _, byX := range []bool{true, false} {
		pts := make([]located, 999)
		for i := range pts {
			pts[i] = located{geom.Point{X: 3, Y: 3}, (i * 577) % len(pts)}
		}
		order := splitOrder(byX)
		for _, k := range []int{1, 499, 998} {
			s := slices.Clone(pts)
			selectFunc(s, k, order)
			checkSelected(t, fmt.Sprintf("coincident byX=%v", byX), s, k, order)
		}
	}

	// The adversary freezes values as the selection compares; the
	// elements it never compared stay gas and take the largest values in
	// any order, consistent with every answer it gave.
	for _, k := range []int{1, n / 4, n / 2, n - 2} {
		a := newAntiQuick(n)
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		selectFunc(s, k, a.cmp)
		for x := range a.val {
			if a.val[x] == a.gas {
				a.freeze(x)
			}
		}
		if a.compares > 4*n*logn {
			t.Errorf("adversary k=%d: %d comparisons, over 4·n·log₂n = %d", k, a.compares, 4*n*logn)
		}
		byVal := func(x, y int) int { return cmp.Compare(a.val[x], a.val[y]) }
		checkSelected(t, "adversary", s, k, byVal)
	}
}
