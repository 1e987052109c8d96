package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"smartndr/internal/obs"
)

func TestCacheHitMissAndCounters(t *testing.T) {
	reg := &obs.Registry{}
	c := NewCache(4, reg)
	ctx := context.Background()

	calls := 0
	load := func() ([]byte, error) { calls++; return []byte("body"), nil }

	body, outcome, err := c.Do(ctx, "k", load)
	if err != nil || string(body) != "body" || outcome != CacheMiss {
		t.Fatalf("cold Do = %q,%q,%v; want body,miss,nil", body, outcome, err)
	}
	body, outcome, err = c.Do(ctx, "k", load)
	if err != nil || string(body) != "body" || outcome != CacheHit {
		t.Fatalf("warm Do = %q,%q,%v; want body,hit,nil", body, outcome, err)
	}
	if calls != 1 {
		t.Fatalf("loader ran %d times, want 1", calls)
	}
	if got := reg.Counter("serve.cache_hits"); got != 1 {
		t.Errorf("cache_hits = %v, want 1", got)
	}
	if got := reg.Counter("serve.cache_misses"); got != 1 {
		t.Errorf("cache_misses = %v, want 1", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := &obs.Registry{}
	c := NewCache(2, reg)
	ctx := context.Background()
	put := func(k string) {
		_, _, err := c.Do(ctx, k, func() ([]byte, error) { return []byte(k), nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	// Touch a so b becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	put("c")
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Errorf("Len/Cap = %d/%d, want 2/2", c.Len(), c.Cap())
	}
	if got := reg.Counter("serve.cache_evictions"); got != 1 {
		t.Errorf("cache_evictions = %v, want 1", got)
	}
}

// TestCacheBoundExact fills the cache to exactly its bound with distinct
// content-address-shaped keys: every entry stays resident and nothing is
// evicted until one more key arrives.
func TestCacheBoundExact(t *testing.T) {
	const entries = 256
	reg := &obs.Registry{}
	c := NewCache(entries, reg)
	ctx := context.Background()
	put := func(i int) {
		sum := sha256.Sum256([]byte(fmt.Sprintf("design-%d", i)))
		k := hex.EncodeToString(sum[:])
		if _, _, err := c.Do(ctx, k, func() ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < entries; i++ {
		put(i)
	}
	if got := c.Len(); got != entries {
		t.Errorf("Len() = %d after %d distinct keys, want %d", got, entries, entries)
	}
	if got := reg.Counter("serve.cache_evictions"); got != 0 {
		t.Errorf("cache_evictions = %v at the bound, want 0", got)
	}
	put(entries)
	if got := c.Len(); got != entries {
		t.Errorf("Len() = %d past the bound, want %d", got, entries)
	}
	if got := reg.Counter("serve.cache_evictions"); got != 1 {
		t.Errorf("cache_evictions = %v past the bound, want 1", got)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	load := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	if _, _, err := c.Do(ctx, "k", load); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed load cached an entry")
	}
	body, outcome, err := c.Do(ctx, "k", load)
	if err != nil || string(body) != "ok" || outcome != CacheMiss {
		t.Fatalf("retry Do = %q,%q,%v; want ok,miss,nil", body, outcome, err)
	}
}

func TestCacheSingleflightShares(t *testing.T) {
	c := NewCache(4, nil)
	ctx := context.Background()

	started := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	load := func() ([]byte, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		close(started)
		<-release
		return []byte("shared"), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]string, 2)
	bodies := make([][]byte, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		bodies[0], outcomes[0], _ = c.Do(ctx, "k", load)
	}()
	<-started // leader is inside the loader; the flight is registered

	wg.Add(1)
	go func() {
		defer wg.Done()
		bodies[1], outcomes[1], _ = c.Do(ctx, "k", func() ([]byte, error) {
			t.Error("follower must not run its own loader")
			return nil, nil
		})
	}()
	// The follower either joins the flight (shared) or, if it loses the
	// race and arrives after completion, hits the cache. Both prove
	// single execution.
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("loader ran %d times, want 1", calls)
	}
	if string(bodies[0]) != "shared" || string(bodies[1]) != "shared" {
		t.Fatalf("bodies = %q/%q, want shared/shared", bodies[0], bodies[1])
	}
	if outcomes[0] != CacheMiss {
		t.Errorf("leader outcome = %q, want miss", outcomes[0])
	}
	if outcomes[1] != CacheShared && outcomes[1] != CacheHit {
		t.Errorf("follower outcome = %q, want shared or hit", outcomes[1])
	}
}

func TestCacheFollowerHonorsContext(t *testing.T) {
	c := NewCache(4, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() ([]byte, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower err = %v, want context.Canceled", err)
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(128, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			body, _, err := c.Do(ctx, key, func() ([]byte, error) { return []byte(key), nil })
			if err != nil || string(body) != key {
				t.Errorf("Do(%s) = %q,%v", key, body, err)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
}
