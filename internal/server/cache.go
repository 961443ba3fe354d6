package server

import (
	"container/list"
	"hash/maphash"
	"math"
	"sync"

	"fastppv/internal/cluster"
	"fastppv/internal/graph"
	"fastppv/internal/querylog"
)

// CacheKey identifies one cacheable answer: the query node together with the
// accuracy knobs that shaped it. Two requests with the same key are
// exchangeable, so the cached answer is byte-identical to recomputing.
type CacheKey struct {
	Node        graph.NodeID
	Eta         int
	TargetError float64
	// Epoch is the cluster index epoch the answer belongs to (router mode
	// only; engine mode invalidates by hub dependency instead and leaves it
	// zero). Keying on it makes an accepted update instantly retire every
	// pre-update answer — lookups move to the new epoch and the old entries
	// age out — and keeps a post-update request from coalescing onto a
	// pre-update flight.
	Epoch uint64
}

// cachedAnswer is a fully computed query answer held by the cache and shared
// by coalesced requests. The result (including its estimate) is immutable
// once stored.
type cachedAnswer struct {
	// result is the backend's answer; for a local engine the cluster fields
	// beyond Epoch are zero.
	result *cluster.Result
	// deps are the hubs whose indexed prime PPV the computation consumed, in
	// ascending order (core.QueryState.HubDeps); invalidation is keyed on them.
	deps []graph.NodeID
	// degraded marks answers produced by the admission-control degradation
	// path or by a cluster that lost shards mid-query; they answer with less
	// accuracy than a healthy full-service computation and are never cached.
	degraded bool
	// traceID is set when the always-on capturer retained this computation's
	// trace (slow, degraded, sampled, or explicitly traced); it travels back
	// in the X-Fastppv-Trace response header so a caller that just saw a slow
	// answer can fetch /v1/debug/trace/{id}. slow records the slow-threshold
	// verdict for the query log.
	traceID string
	slow    bool
	// legs are the per-shard sub-request summaries of a router-mode answer,
	// recorded in the query log.
	legs []querylog.LegSummary
	// bytes is the estimated memory footprint used for budget accounting.
	bytes int64
}

// sizeBytes estimates the footprint of an answer: the sparse estimate and the
// per-iteration stats dominate; constants cover struct overheads.
func (a *cachedAnswer) sizeBytes() int64 {
	const (
		fixed        = 160 // Result + list/map bookkeeping
		perEntry     = 16  // map entry: NodeID + float64 + bucket overhead share
		perIteration = 64  // IterationStat
		perDep       = 8
	)
	return fixed +
		int64(a.result.Estimate.NonZeros())*perEntry +
		int64(len(a.result.PerIteration))*perIteration +
		int64(len(a.deps))*perDep
}

// CacheStats is a point-in-time summary of the cache, aggregated over shards.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Puts          int64 `json:"puts"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// Cache is a sharded LRU over query answers with a global byte budget split
// evenly across shards. Sharding keeps lock contention off the hot query path
// under concurrent load; each shard is an independent mutex + LRU list.
type Cache struct {
	shards []*cacheShard
	seed   maphash.Seed
	budget int64
}

type cacheShard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // front = most recently used; values are *cacheEntry
	byKey  map[CacheKey]*list.Element

	hits, misses, puts, evictions, invalidations int64
}

type cacheEntry struct {
	key CacheKey
	ans *cachedAnswer
}

// NewCache creates a cache with the given total byte budget across numShards
// shards. A non-positive budget or shard count falls back to defaults.
func NewCache(budgetBytes int64, numShards int) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = 64 << 20
	}
	if numShards <= 0 {
		numShards = 16
	}
	c := &Cache{
		shards: make([]*cacheShard, numShards),
		seed:   maphash.MakeSeed(),
		budget: budgetBytes,
	}
	perShard := budgetBytes / int64(numShards)
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			budget: perShard,
			lru:    list.New(),
			byKey:  make(map[CacheKey]*list.Element),
		}
	}
	return c
}

func (c *Cache) shardFor(k CacheKey) *cacheShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteByte(byte(k.Node))
	h.WriteByte(byte(k.Node >> 8))
	h.WriteByte(byte(k.Node >> 16))
	h.WriteByte(byte(k.Node >> 24))
	h.WriteByte(byte(k.Eta))
	// TargetError is part of the key, so it must be part of the hash: keys
	// differing only in target error would otherwise all land on one shard
	// and serialize on its mutex.
	te := math.Float64bits(k.TargetError)
	for i := 0; i < 8; i++ {
		h.WriteByte(byte(te >> (8 * i)))
	}
	for i := 0; i < 8; i++ {
		h.WriteByte(byte(k.Epoch >> (8 * i)))
	}
	return c.shards[h.Sum64()%uint64(len(c.shards))]
}

// Get returns the cached answer for k, promoting it to most recently used.
func (c *Cache) Get(k CacheKey) (*cachedAnswer, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[k]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).ans, true
}

// Put stores the answer for k, replacing any previous entry, and evicts from
// the least recently used end until the shard is back under budget. Answers
// larger than a whole shard budget are not cached at all.
func (c *Cache) Put(k CacheKey, ans *cachedAnswer) {
	if ans.bytes == 0 {
		ans.bytes = ans.sizeBytes()
	}
	s := c.shardFor(k)
	if ans.bytes > s.budget {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// puts counts every successful store, replacements included; counting
	// only inserts would make hit-ratio accounting drift on workloads that
	// refresh existing keys.
	s.puts++
	if el, ok := s.byKey[k]; ok {
		old := el.Value.(*cacheEntry)
		s.bytes -= old.ans.bytes
		old.ans = ans
		s.bytes += ans.bytes
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&cacheEntry{key: k, ans: ans})
		s.byKey[k] = el
		s.bytes += ans.bytes
	}
	for s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.removeLocked(back)
		s.evictions++
	}
}

func (s *cacheShard) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	s.lru.Remove(el)
	delete(s.byKey, ent.key)
	s.bytes -= ent.ans.bytes
}

// Invalidate removes every entry for which stale returns true and reports how
// many were dropped. It is called under the server's update lock, so no new
// stale entries can be inserted concurrently.
func (c *Cache) Invalidate(stale func(CacheKey, *cachedAnswer) bool) int {
	dropped := 0
	for _, s := range c.shards {
		s.mu.Lock()
		var next *list.Element
		for el := s.lru.Front(); el != nil; el = next {
			next = el.Next()
			ent := el.Value.(*cacheEntry)
			if stale(ent.key, ent.ans) {
				s.removeLocked(el)
				s.invalidations++
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.byKey)
		s.mu.Unlock()
	}
	return n
}

// Stats aggregates the per-shard counters.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	st.BudgetBytes = c.budget
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Puts += s.puts
		st.Evictions += s.evictions
		st.Invalidations += s.invalidations
		st.Entries += len(s.byKey)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
