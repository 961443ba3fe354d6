package server

import (
	"encoding/binary"
	"hash/maphash"
	"math"

	"fastppv/internal/cluster"
	"fastppv/internal/graph"
	"fastppv/internal/lru"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
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
// by coalesced requests. The result (including its estimate) and top are
// immutable once stored.
type cachedAnswer struct {
	// result is the backend's answer; for a local engine the cluster fields
	// beyond Epoch are zero. Its estimate is the sorted Entries only: nothing
	// on the serving path builds the map view.
	result *cluster.Result
	// top is the ranking of the estimate up to defaultTopK, selected
	// once when the answer was computed. Every ranking is a prefix of a longer
	// one (a total order: score descending, node ascending), so render answers
	// any top it covers by slicing — a cache hit is constant work — and
	// selects over result.Entries only for a larger top.
	top []sparse.Entry
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
	// recorded in the query log; nil when no query log is configured.
	legs []querylog.LegSummary
}

// sizeBytes estimates the footprint of an answer: the sparse estimate and the
// per-iteration stats dominate; constants cover struct overheads (the top
// prefix included). The estimate is held as sorted entries, so perEntry is
// now its real cost; the map it replaced cost ~37 B an entry, which this
// estimate always undercounted.
func (a *cachedAnswer) sizeBytes() int64 {
	const (
		fixed        = 160 // Result + list/map bookkeeping
		perEntry     = 16  // sparse.Entry: NodeID + float64
		perIteration = 64  // IterationStat
		perDep       = 8
	)
	return fixed +
		int64(len(a.result.Entries))*perEntry +
		int64(len(a.result.PerIteration))*perIteration +
		int64(len(a.deps))*perDep
}

// CacheStats is the result cache's block of /v1/stats.
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

func cacheStats(st lru.Stats) CacheStats {
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Evictions: st.Evictions,
		Invalidations: st.Invalidations, Entries: st.Entries, Bytes: st.Bytes, BudgetBytes: st.BudgetBytes}
}

// Cache is the result cache: answers by key under a byte budget, with
// concurrent identical misses coalesced into one computation (Do).
type Cache = lru.Cache[CacheKey, *cachedAnswer]

// cacheShards is the server's result-cache shard count.
const cacheShards = 16

// NewCache creates a result cache of budgetBytes over numShards shards. A
// non-positive budget retains nothing, so the cache only coalesces.
func NewCache(budgetBytes int64, numShards int) *Cache {
	seed := maphash.MakeSeed()
	return lru.New[CacheKey, *cachedAnswer](budgetBytes, numShards, func(k CacheKey) uint64 { return k.hash(seed) })
}

// hash is the shard hash of k. Keys come from clients, so it is seeded: no
// client can aim its queries at one shard's mutex. Every field is hashed at
// full width; keys differing in one field only would otherwise share a shard.
func (k CacheKey) hash(seed maphash.Seed) uint64 {
	var b [28]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(k.Node))
	binary.LittleEndian.PutUint64(b[4:], uint64(k.Eta))
	binary.LittleEndian.PutUint64(b[12:], math.Float64bits(k.TargetError))
	binary.LittleEndian.PutUint64(b[20:], k.Epoch)
	return maphash.Bytes(seed, b[:])
}
