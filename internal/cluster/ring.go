// Package cluster scales the smartndr flow service from one process to
// a fleet while keeping the single-binary story: a frontend routes
// content-addressed work across cache-shard backends (each canonical
// key is owned by exactly one backend, so a cold run happens once
// fleet-wide), fans sweep arms out to workers with a bounded gate per
// backend, and hedges stragglers onto a second replica after the
// recent p95. Only frontends build a Runner; a single node or a worker
// serves serve.FlowRunner directly, with nothing to distribute.
//
// The package implements serve.Runner, so the HTTP layer (admission,
// caching, drain, telemetry) is identical on every node; see
// docs/service.md for the topology and failure-mode story.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ringVersion is folded into every ring-point hash; bump it to remap
// the whole keyspace deliberately (it is the only way the placement
// function is allowed to change).
const ringVersion = "smartndr/ring/v1"

// ringReplicas is the virtual-node count per backend. 64 vnodes
// keep the maximum shard imbalance within a few percent for small
// fleets while the ring stays tiny (a few KB).
const ringReplicas = 64

// Ring is a consistent-hash ring mapping canonical result keys to
// backend indices. Placement depends only on the backend names and the
// ring version — never on list order, process identity, or time — so
// every frontend in a fleet computes identical ownership, and adding
// or removing one backend moves only that backend's arc of keys.
type Ring struct {
	points []ringPoint
	n      int
}

type ringPoint struct {
	hash    uint64
	backend int
}

// NewRing builds a ring over n backends named by names (placement is
// name-derived, so names must be stable across the fleet — use the
// backend's address or configured shard name).
func NewRing(names []string) *Ring {
	r := &Ring{n: len(names), points: make([]ringPoint, 0, len(names)*ringReplicas)}
	for i, name := range names {
		for j := 0; j < ringReplicas; j++ {
			h := ringHash(ringVersion + "|" + name + "|" + strconv.Itoa(j))
			r.points = append(r.points, ringPoint{hash: h, backend: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
	return r
}

// Backends returns the backend count the ring was built over.
func (r *Ring) Backends() int { return r.n }

// Owner returns the backend index owning key: the first ring point at
// or clockwise after the key's hash.
func (r *Ring) Owner(key string) int {
	if r.n == 0 {
		return -1
	}
	return r.points[r.search(ringHash(key))].backend
}

// Sequence appends to buf the distinct backends in ring order starting
// from key's owner — the preference order for placement, hedging, and
// failover: seq[0] owns the key, seq[1] is the hedge/failover target,
// and so on. Every backend appears exactly once.
func (r *Ring) Sequence(key string, buf []int) []int {
	buf = buf[:0]
	if r.n == 0 {
		return buf
	}
	seen := make([]bool, r.n)
	i := r.search(ringHash(key))
	for k := 0; k < len(r.points) && len(buf) < r.n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			buf = append(buf, p.backend)
		}
	}
	return buf
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// ringHash maps a string onto the ring's 64-bit keyspace. SHA-256
// (truncated) rather than a fast non-cryptographic hash: placement
// must be stable across architectures and releases, and ring
// construction is a startup-only cost.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
