package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return keys
}

func TestRingPlacementIgnoresListOrder(t *testing.T) {
	// Ownership must be a pure function of the name set: every frontend
	// in a fleet computes the same placement no matter how its -backends
	// flag happened to be ordered.
	a := NewRing([]string{"w1", "w2", "w3"})
	b := NewRing([]string{"w3", "w1", "w2"})
	namesA := []string{"w1", "w2", "w3"}
	namesB := []string{"w3", "w1", "w2"}
	for _, key := range ringKeys(500) {
		if namesA[a.Owner(key)] != namesB[b.Owner(key)] {
			t.Fatalf("key %q owned by %s in one ordering, %s in another",
				key, namesA[a.Owner(key)], namesB[b.Owner(key)])
		}
	}
}

func TestRingOwnerIsDeterministic(t *testing.T) {
	r := NewRing([]string{"w1", "w2", "w3"})
	for _, key := range ringKeys(100) {
		first := r.Owner(key)
		for i := 0; i < 3; i++ {
			if got := r.Owner(key); got != first {
				t.Fatalf("key %q owner flapped: %d then %d", key, first, got)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	// With 64 vnodes per backend the arcs even out; no shard should own
	// a wildly disproportionate share of a uniform keyspace.
	r := NewRing([]string{"w1", "w2", "w3"})
	counts := make([]int, 3)
	keys := ringKeys(9000)
	for _, key := range keys {
		counts[r.Owner(key)]++
	}
	for i, c := range counts {
		share := float64(c) / float64(len(keys))
		if share < 0.15 || share > 0.55 {
			t.Errorf("backend %d owns %.1f%% of keys (counts %v); ring is badly unbalanced",
				i, 100*share, counts)
		}
	}
}

func TestRingSequenceCoversAllBackendsOnce(t *testing.T) {
	const n = 5
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	r := NewRing(names)
	var buf []int
	for _, key := range ringKeys(200) {
		buf = r.Sequence(key, buf)
		if len(buf) != n {
			t.Fatalf("key %q sequence has %d entries, want %d: %v", key, len(buf), n, buf)
		}
		seen := make([]bool, n)
		for _, b := range buf {
			if b < 0 || b >= n || seen[b] {
				t.Fatalf("key %q sequence %v repeats or escapes [0,%d)", key, buf, n)
			}
			seen[b] = true
		}
		if buf[0] != r.Owner(key) {
			t.Fatalf("key %q sequence starts at %d, owner is %d", key, buf[0], r.Owner(key))
		}
	}
}

func TestRingRemovalMovesOnlyTheRemovedArc(t *testing.T) {
	// The consistent-hashing contract: dropping w3 reassigns only the
	// keys w3 owned. Every key owned by w1 or w2 keeps its owner.
	full := NewRing([]string{"w1", "w2", "w3"})
	reduced := NewRing([]string{"w1", "w2"})
	names := []string{"w1", "w2", "w3"}
	moved := 0
	for _, key := range ringKeys(2000) {
		was := names[full.Owner(key)]
		if was == "w3" {
			moved++
			continue
		}
		if now := names[reduced.Owner(key)]; now != was {
			t.Fatalf("key %q moved from %s to %s although only w3 was removed", key, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("w3 owned no keys; the ring test is vacuous")
	}
}

func TestRingDegenerateSizes(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner("k"); got != -1 {
		t.Errorf("empty ring Owner = %d, want -1", got)
	}
	if seq := empty.Sequence("k", nil); len(seq) != 0 {
		t.Errorf("empty ring Sequence = %v, want empty", seq)
	}
	one := NewRing([]string{"solo"})
	for _, key := range ringKeys(20) {
		if got := one.Owner(key); got != 0 {
			t.Errorf("single-backend ring Owner(%q) = %d, want 0", key, got)
		}
	}
	if seq := one.Sequence("k", nil); len(seq) != 1 || seq[0] != 0 {
		t.Errorf("single-backend ring Sequence = %v, want [0]", seq)
	}
}
