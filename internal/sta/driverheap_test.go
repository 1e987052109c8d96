package sta

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refHeap is the reference for driverHeap: the same min-heap of stage
// drivers by depth, driven through container/heap.
type refHeap []hDriver

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].depth < h[j].depth }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(hDriver)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestDriverHeapMatchesContainerHeap: over seeded interleavings of pushes
// and pops, driverHeap pops the same (depth, node) sequence as
// container/heap and holds the same slice after every operation. Depths
// come from a range of 1–4 values, so nearly every comparison is a tie:
// the order among equal depths is what the update's visit order (and so
// its node-visit count) depends on.
func TestDriverHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		depths := 1 + rng.Intn(4)
		popP := 0.2 + 0.5*rng.Float64()
		var got driverHeap
		var want refHeap
		pops := 0
		check := func(op int) {
			t.Helper()
			if !slices.Equal([]hDriver(got), []hDriver(want)) {
				t.Fatalf("seed %d op %d: heap %v, container/heap %v", seed, op, got, want)
			}
		}
		pop := func(op int) {
			t.Helper()
			w := heap.Pop(&want).(hDriver)
			if g := got.pop(); g != w {
				t.Fatalf("seed %d op %d: popped %+v, container/heap %+v", seed, op, g, w)
			}
			pops++
		}
		for op := 0; op < 500; op++ {
			if len(want) > 0 && rng.Float64() < popP {
				pop(op)
			} else {
				d := hDriver{depth: rng.Intn(depths), node: op}
				heap.Push(&want, d)
				got.push(d)
			}
			check(op)
		}
		for op := 500; len(want) > 0; op++ {
			pop(op)
			check(op)
		}
		if pops < 100 {
			t.Fatalf("seed %d: only %d pops", seed, pops)
		}
	}
}
