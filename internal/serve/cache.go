package serve

import (
	"container/list"
	"context"
	"sync"

	"smartndr/internal/obs"
)

// Cache is a bounded, content-addressed result cache with singleflight
// de-duplication. Keys are canonical hashes of everything that
// determines a result (see Flow.CanonicalKeyEdits), values are the exact
// serialized response bytes — a hit replays a prior run byte for byte,
// which is only sound because the engine is deterministic.
//
// One mutex guards one LRU list, the item map and the flight table, so
// the entry bound is exact: the cache never holds more than Cap entries
// and evicts only when a new entry would exceed it.
//
// Three counters land in the registry: serve.cache_hits,
// serve.cache_misses (each Do that ran the loader), and
// serve.cache_evictions (entries displaced by the LRU bound).
type Cache struct {
	reg *obs.Registry // nil-safe; shared with the server's tracer
	max int

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight
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
	return &Cache{
		reg:     reg,
		max:     max,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Get returns the cached body for key, if present, bumping its
// recency. The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
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
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		c.reg.Add("serve.cache_hits", 1)
		return body, CacheHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			c.reg.Add("serve.cache_hits", 1)
			return f.body, CacheShared, f.err
		case <-ctx.Done():
			return nil, CacheShared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.reg.Add("serve.cache_misses", 1)
	f.body, f.err = load()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		if evicted := c.insertLocked(key, f.body); evicted > 0 {
			c.reg.Add("serve.cache_evictions", float64(evicted))
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.body, CacheMiss, f.err
}

// insertLocked adds or refreshes an entry and returns how many entries
// the LRU bound displaced.
func (c *Cache) insertLocked(key string, body []byte) int {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return 0
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	evicted := 0
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the configured entry bound.
func (c *Cache) Cap() int { return c.max }
