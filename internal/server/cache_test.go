package server

import (
	"testing"

	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// fakeAnswer builds a cachedAnswer with a fixed accounting size and the given
// hub dependencies.
func fakeAnswer(bytes int64, deps ...graph.NodeID) *cachedAnswer {
	est := sparse.Vector{1: 0.5}
	return &cachedAnswer{
		result: &cluster.Result{Result: core.Result{Estimate: est}},
		deps:   deps,
		bytes:  bytes,
	}
}

func key(node int) CacheKey { return CacheKey{Node: graph.NodeID(node), Eta: 2} }

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(250, 1) // single shard, room for two 100-byte answers

	c.Put(key(1), fakeAnswer(100))
	c.Put(key(2), fakeAnswer(100))
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	// Entry 2 is now least recently used; inserting 3 must evict it.
	c.Put(key(3), fakeAnswer(100))

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
	c.Put(key(1), fakeAnswer(300))
	c.Put(key(2), fakeAnswer(400))
	if st := c.Stats(); st.Bytes != 700 {
		t.Fatalf("bytes = %d, want 700", st.Bytes)
	}
	// Replacing an entry adjusts, not double-counts.
	c.Put(key(1), fakeAnswer(500))
	if st := c.Stats(); st.Bytes != 900 {
		t.Fatalf("bytes after replace = %d, want 900", st.Bytes)
	}
	// Eviction returns the budget.
	c.Put(key(3), fakeAnswer(600))
	st := c.Stats()
	if st.Bytes > 1000 {
		t.Fatalf("bytes %d exceed budget 1000", st.Bytes)
	}
	total := int64(0)
	for _, k := range []CacheKey{key(1), key(2), key(3)} {
		if a, ok := c.Get(k); ok {
			total += a.bytes
		}
	}
	if total != st.Bytes {
		t.Fatalf("live bytes %d != accounted bytes %d", total, st.Bytes)
	}
}

func TestCacheOversizedAnswerNotCached(t *testing.T) {
	c := NewCache(100, 1)
	c.Put(key(1), fakeAnswer(1000))
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("answer larger than the shard budget was cached")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want empty", st)
	}
}

func TestCacheSizeEstimate(t *testing.T) {
	a := fakeAnswer(0)
	c := NewCache(1<<20, 1)
	c.Put(key(1), a)
	if a.bytes <= 0 {
		t.Fatalf("sizeBytes not filled in: %d", a.bytes)
	}
	if st := c.Stats(); st.Bytes != a.bytes {
		t.Fatalf("accounted %d != estimated %d", st.Bytes, a.bytes)
	}
}

func TestCachePutCountsReplacements(t *testing.T) {
	c := NewCache(1<<20, 1)
	c.Put(key(1), fakeAnswer(100))
	c.Put(key(1), fakeAnswer(120))
	c.Put(key(2), fakeAnswer(100))
	st := c.Stats()
	if st.Puts != 3 {
		t.Fatalf("puts = %d, want 3 (replacements count)", st.Puts)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// An oversized answer is rejected before reaching the shard and must not
	// count as a put.
	c.Put(key(3), fakeAnswer(2<<20))
	if st := c.Stats(); st.Puts != 3 {
		t.Fatalf("puts after rejected oversize = %d, want 3", st.Puts)
	}
}

func TestCacheShardForSpreadsTargetError(t *testing.T) {
	c := NewCache(1<<20, 16)
	shards := make(map[*cacheShard]struct{})
	for i := 0; i < 64; i++ {
		k := CacheKey{Node: 1, Eta: 2, TargetError: 0.001 * float64(i+1)}
		shards[c.shardFor(k)] = struct{}{}
	}
	// With TargetError excluded from the hash all 64 keys land on one shard;
	// hashing it in makes a single-shard outcome astronomically unlikely.
	if len(shards) < 2 {
		t.Fatalf("64 keys differing only in target error mapped to %d shard(s)", len(shards))
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1<<20, 4)
	c.Put(key(1), fakeAnswer(100, 7))
	c.Put(key(2), fakeAnswer(100, 8))
	c.Put(key(3), fakeAnswer(100, 7, 9))

	dropped := c.Invalidate(func(_ CacheKey, ans *cachedAnswer) bool {
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
