package server

import (
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"testing"

	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// fakeAnswer builds a cachedAnswer with the given hub dependencies.
func fakeAnswer(deps ...graph.NodeID) *cachedAnswer {
	return &cachedAnswer{
		result: &cluster.Result{Result: core.Result{Entries: []sparse.Entry{{Node: 1, Score: 0.5}}}},
		deps:   deps,
	}
}

func key(node int) CacheKey { return CacheKey{Node: graph.NodeID(node), Eta: 2} }

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(250, 1) // single shard, room for two 100-byte answers

	c.Put(key(1), fakeAnswer(), 100)
	c.Put(key(2), fakeAnswer(), 100)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	// Entry 2 is now least recently used; inserting 3 must evict it.
	c.Put(key(3), fakeAnswer(), 100)

	if _, ok := c.Get(key(2)); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Error("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(key(3)); !ok {
		t.Error("fresh entry 3 was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

func TestCacheByteAccounting(t *testing.T) {
	c := NewCache(1000, 1)
	size := map[*cachedAnswer]int64{}
	put := func(k CacheKey, bytes int64) {
		a := fakeAnswer()
		size[a] = bytes
		c.Put(k, a, bytes)
	}
	put(key(1), 300)
	put(key(2), 400)
	if st := c.Stats(); st.Bytes != 700 {
		t.Fatalf("bytes = %d, want 700", st.Bytes)
	}
	// Replacing an entry adjusts, not double-counts.
	put(key(1), 500)
	if st := c.Stats(); st.Bytes != 900 {
		t.Fatalf("bytes after replace = %d, want 900", st.Bytes)
	}
	// Eviction returns the budget.
	put(key(3), 600)
	st := c.Stats()
	if st.Bytes > 1000 {
		t.Fatalf("bytes %d exceed budget 1000", st.Bytes)
	}
	total := int64(0)
	for _, k := range []CacheKey{key(1), key(2), key(3)} {
		if a, ok := c.Get(k); ok {
			total += size[a]
		}
	}
	if total != st.Bytes {
		t.Fatalf("live bytes %d != accounted bytes %d", total, st.Bytes)
	}
}

func TestCacheOversizedAnswerNotCached(t *testing.T) {
	c := NewCache(100, 1)
	c.Put(key(1), fakeAnswer(), 1000)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("answer larger than the shard budget was cached")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want empty", st)
	}
}

// TestCacheSizeEstimate checks that a computed answer is retained at its
// estimated size, and that the estimate grows with the estimate it holds.
func TestCacheSizeEstimate(t *testing.T) {
	srv, err := New(testEngine(t, socialGraph(t, 300), 30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, _, body := get(t, ts, "/v1/ppv?node=17&eta=2"); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	a, ok := srv.cache.Get(CacheKey{Node: 17, Eta: 2})
	if !ok {
		t.Fatal("computed answer was not retained")
	}
	if st := srv.cache.Stats(); st.Bytes != a.sizeBytes() || st.Entries != 1 {
		t.Fatalf("accounted %d bytes in %d entries, want one of %d", st.Bytes, st.Entries, a.sizeBytes())
	}
	small := fakeAnswer()
	if big := fakeAnswer(7, 8); big.sizeBytes() <= small.sizeBytes() || small.sizeBytes() <= 0 {
		t.Fatalf("sizeBytes %d (2 deps) vs %d (none)", big.sizeBytes(), small.sizeBytes())
	}
}

func TestCachePutCountsReplacements(t *testing.T) {
	c := NewCache(1<<20, 1)
	c.Put(key(1), fakeAnswer(), 100)
	c.Put(key(1), fakeAnswer(), 120)
	c.Put(key(2), fakeAnswer(), 100)
	st := c.Stats()
	if st.Puts != 3 {
		t.Fatalf("puts = %d, want 3 (replacements count)", st.Puts)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// An oversized answer is rejected before reaching the shard and must not
	// count as a put.
	c.Put(key(3), fakeAnswer(), 2<<20)
	if st := c.Stats(); st.Puts != 3 {
		t.Fatalf("puts after rejected oversize = %d, want 3", st.Puts)
	}
}

func TestCacheShardForSpreadsTargetError(t *testing.T) {
	seed := maphash.MakeSeed()
	for name, vary := range map[string]func(k *CacheKey, i int){
		"target error": func(k *CacheKey, i int) { k.TargetError = 0.001 * float64(i+1) },
		// Etas 256 apart: hashing only the low byte of eta puts them all on
		// one shard.
		"eta":   func(k *CacheKey, i int) { k.Eta = 2 + 256*i },
		"epoch": func(k *CacheKey, i int) { k.Epoch = uint64(i) << 8 },
	} {
		shards := make(map[uint64]struct{})
		for i := 0; i < 64; i++ {
			k := CacheKey{Node: 1, Eta: 2}
			vary(&k, i)
			shards[k.hash(seed)%cacheShards] = struct{}{}
		}
		// With the field excluded from the hash all 64 keys land on one
		// shard; hashing it in makes a single-shard outcome astronomically
		// unlikely.
		if len(shards) < 2 {
			t.Errorf("64 keys differing only in %s mapped to %d shard(s)", name, len(shards))
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1<<20, 4)
	c.Put(key(1), fakeAnswer(7), 100)
	c.Put(key(2), fakeAnswer(8), 100)
	c.Put(key(3), fakeAnswer(7, 9), 100)

	dropped := c.InvalidateFunc(func(_ CacheKey, ans *cachedAnswer) bool {
		for _, d := range ans.deps {
			if d == 7 {
				return true
			}
		}
		return false
	})
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if _, ok := c.Get(key(2)); !ok {
		t.Error("unaffected entry 2 was dropped")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("stale entry 1 survived")
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", st.Invalidations)
	}
}
