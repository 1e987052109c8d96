package serve

import (
	"container/list"
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"smartndr/internal/obs"
)

// Cache is a bounded, content-addressed result cache with singleflight
// de-duplication. Keys are canonical hashes of everything that
// determines a result (see Flow.CanonicalKeyEdits), values are the exact
// serialized response bytes — a hit replays a prior run byte for byte,
// which is only sound because the engine is deterministic.
//
// Internally the cache is lock-striped into shards (each with its own
// LRU list and flight table) so concurrent hits on different keys
// don't serialize on one mutex. Small caches use a single shard, which
// keeps the LRU bound globally exact; large caches trade exactness of
// the global bound (each shard bounds its own slice of the keyspace)
// for parallelism.
//
// Three counters land in the registry: serve.cache_hits,
// serve.cache_misses (each Do that ran the loader), and
// serve.cache_evictions (entries displaced by the LRU bound). The same
// events are also tallied per shard for /v1/statsz and /metricsz.
type Cache struct {
	reg    *obs.Registry // nil-safe; shared with the server's tracer
	max    int
	shards []*cacheShard
}

// shardThreshold is the smallest cache capacity that gets striped.
// Below it a single shard keeps eviction order globally exact — the
// contract small-capacity tests (and small deployments) rely on.
const shardThreshold = 64

// cacheShardCount is the stripe count for caches at or above the
// threshold. 8 stripes are plenty to take lock contention off the hit
// path at the service's admission-bounded concurrency.
const cacheShardCount = 8

type cacheShard struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// flight is one in-progress load; followers wait on done and read
// body/err afterwards.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// Cache outcomes, reported by Do and tagged onto request spans.
const (
	CacheHit    = "hit"    // served from the cache
	CacheMiss   = "miss"   // this call ran the loader
	CacheShared = "shared" // de-duplicated onto a concurrent identical call
)

// NewCache returns a cache bounded to max entries (min 1). reg may be
// nil to drop the counters.
func NewCache(max int, reg *obs.Registry) *Cache {
	if max < 1 {
		max = 1
	}
	n := 1
	if max >= shardThreshold {
		n = cacheShardCount
	}
	c := &Cache{reg: reg, max: max, shards: make([]*cacheShard, n)}
	perShard := (max + n - 1) / n
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			max:     perShard,
			ll:      list.New(),
			items:   make(map[string]*list.Element),
			flights: make(map[string]*flight),
		}
	}
	return c
}

// shard maps a key to its stripe. Keys are already uniform hashes, but
// FNV keeps the mapping correct for arbitrary strings too.
func (c *Cache) shard(key string) *cacheShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns the cached body for key, if present, bumping its
// recency. The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Do returns the body for key, loading it with load on a miss.
// Concurrent Do calls with the same key share one load — followers
// block until the leader finishes and receive its result. A failed load
// caches nothing. The second return names the outcome: CacheHit,
// CacheMiss (this call ran load), or CacheShared (another call did).
// A follower whose ctx ends while waiting returns ctx's error; the
// leader's load keeps running under its own context.
func (c *Cache) Do(ctx context.Context, key string, load func() ([]byte, error)) ([]byte, string, error) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		body := el.Value.(*cacheEntry).body
		s.mu.Unlock()
		s.hits.Add(1)
		c.reg.Add("serve.cache_hits", 1)
		return body, CacheHit, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			s.hits.Add(1)
			c.reg.Add("serve.cache_hits", 1)
			return f.body, CacheShared, f.err
		case <-ctx.Done():
			return nil, CacheShared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	s.misses.Add(1)
	c.reg.Add("serve.cache_misses", 1)
	f.body, f.err = load()

	s.mu.Lock()
	delete(s.flights, key)
	if f.err == nil {
		evicted := s.insertLocked(key, f.body)
		if evicted > 0 {
			s.evictions.Add(uint64(evicted))
			c.reg.Add("serve.cache_evictions", float64(evicted))
		}
	}
	s.mu.Unlock()
	close(f.done)
	return f.body, CacheMiss, f.err
}

// insertLocked adds or refreshes an entry and returns how many entries
// the shard's LRU bound displaced.
func (s *cacheShard) insertLocked(key string, body []byte) int {
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return 0
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, body: body})
	evicted := 0
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// Len returns the current entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Cap returns the configured entry bound.
func (c *Cache) Cap() int { return c.max }

// Shards returns the stripe count.
func (c *Cache) Shards() int { return len(c.shards) }

// CacheShardStat is one stripe's occupancy and hit/miss/eviction
// tallies, exported via /v1/statsz and as labeled series on /metricsz.
type CacheShardStat struct {
	Shard     int    `json:"shard"`
	Len       int    `json:"len"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// ShardStats returns per-stripe stats in shard order.
func (c *Cache) ShardStats() []CacheShardStat {
	out := make([]CacheShardStat, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		n := s.ll.Len()
		s.mu.Unlock()
		out[i] = CacheShardStat{
			Shard:     i,
			Len:       n,
			Hits:      s.hits.Load(),
			Misses:    s.misses.Load(),
			Evictions: s.evictions.Load(),
		}
	}
	return out
}

// Balance returns the occupancy-balance ratio: the fullest shard's
// entry count over the mean (1.0 = perfectly even, 0 when empty). A
// single-shard cache is always 1.0 when non-empty.
func (c *Cache) Balance() float64 {
	total, max := 0, 0
	for _, s := range c.shards {
		s.mu.Lock()
		n := s.ll.Len()
		s.mu.Unlock()
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(c.shards))
	return float64(max) / mean
}
