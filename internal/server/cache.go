package server

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"

	"fastppv/internal/cluster"
	"fastppv/internal/graph"
	"fastppv/internal/lru"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
)

// CacheKey identifies one cacheable answer: the query node together with the
// accuracy knobs that shaped it and the length of ranking it holds. Two
// requests with the same key are exchangeable, so the cached answer is
// byte-identical to recomputing.
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
	// Top is the prefix class of the request's top (topClass): the length of
	// the ranking the answer holds. Every top of one class is served from
	// the same answer; a larger top is a different key, computed once.
	Top int
}

// topClass is the ranking length an answer for a request of top holds:
// defaultTopK up to defaultTopK, otherwise the smallest power of two at or
// above top, capped at maxTopK. A few classes keep the keys of a workload
// few, and a class at most doubles the ranking a request needs.
func topClass(top int) int {
	if top <= defaultTopK {
		return defaultTopK
	}
	return min(1<<bits.Len(uint(top-1)), maxTopK)
}

// cachedAnswer is a computed query answer held by the cache and shared by
// coalesced requests. It holds what render serves and what invalidation
// reads, never the estimate itself: at bench scale a non-hub estimate is
// ~4 400 entries (70 KB), its reach list ~4 KB and a 10-entry ranking 160 B.
// Every field is immutable once stored.
type cachedAnswer struct {
	// result is the backend's answer without its estimate and shard spans
	// (Entries and Spans are nil): the bound, iteration count and
	// per-iteration stats render, the query log and /v1/stats read. For a
	// local engine the cluster fields beyond Epoch are zero.
	result *cluster.Result
	// top is the ranking of the estimate up to the key's prefix class (or
	// the whole estimate, when shorter), selected once when the answer was
	// computed. Every ranking is a prefix of a longer one (a total order:
	// score descending, node ascending), so render answers any top of the
	// class by slicing — a cache hit is constant work.
	top []sparse.Entry
	// reach lists the nodes with a non-zero score in the estimate, ascending,
	// as uvarint deltas (appendReach): what the touched-node invalidation
	// rule reads. It is built only for an engine answer the cache retains;
	// nil otherwise.
	reach []byte
	// deps are the hubs whose indexed prime PPV the computation consumed, in
	// ascending order (core.QueryState.HubDeps); invalidation is keyed on them.
	deps []graph.NodeID
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

// sizeBytes is the footprint of a retained answer: every slice it holds at
// its capacity, plus a fixed share for the structs and the cache's own
// bookkeeping.
func (a *cachedAnswer) sizeBytes() int64 {
	const (
		// fixed covers cachedAnswer (128 B), its cluster.Result (176 B), the
		// LRU entry (80 B) and its slot in the shard map (~70 B).
		fixed        = 454
		perEntry     = 16 // sparse.Entry: NodeID + float64
		perIteration = 56 // core.IterationStat
		perDep       = 4  // graph.NodeID
		perLeg       = 8  // querylog.LegSummary
	)
	return fixed +
		int64(cap(a.top))*perEntry +
		int64(cap(a.reach)) +
		int64(cap(a.result.PerIteration))*perIteration +
		int64(cap(a.deps))*perDep +
		int64(cap(a.legs))*perLeg +
		int64(len(a.traceID))
}

// appendReach encodes the nodes with a non-zero score in entries (sorted by
// ascending node) as the reach list: the first id plus one, then ascending
// deltas, each a uvarint — the node-id layout of api.appendVector, about one
// byte a node on a dense estimate. The list is sized exactly.
func appendReach(entries []sparse.Entry) []byte {
	n, prev := 0, int64(-1)
	for _, e := range entries {
		if e.Score != 0 {
			n += (bits.Len64(uint64(int64(e.Node)-prev)) + 6) / 7
			prev = int64(e.Node)
		}
	}
	out, prev := make([]byte, 0, n), int64(-1)
	for _, e := range entries {
		if e.Score != 0 {
			out = binary.AppendUvarint(out, uint64(int64(e.Node)-prev))
			prev = int64(e.Node)
		}
	}
	return out
}

// reachesAny reports whether the reach list holds any of touched (sorted
// ascending). It decodes the list in one merge pass against touched and stops
// at the first common node or once the list passes the last touched one.
func reachesAny(reach []byte, touched []graph.NodeID) bool {
	if len(touched) == 0 {
		return false
	}
	j, next, node := 0, int64(touched[0]), int64(-1)
	for i := 0; i < len(reach); {
		d := uint64(reach[i])
		if d < 0x80 {
			i++
		} else {
			var w int
			if d, w = binary.Uvarint(reach[i:]); w <= 0 {
				return true // appendReach writes no such list; invalidate rather than guess
			}
			i += w
		}
		if node += int64(d); node < next {
			continue
		}
		for next < node {
			if j++; j == len(touched) {
				return false
			}
			next = int64(touched[j])
		}
		if next == node {
			return true
		}
	}
	return false
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
	var b [36]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(k.Node))
	binary.LittleEndian.PutUint64(b[4:], uint64(k.Eta))
	binary.LittleEndian.PutUint64(b[12:], math.Float64bits(k.TargetError))
	binary.LittleEndian.PutUint64(b[20:], k.Epoch)
	binary.LittleEndian.PutUint64(b[28:], uint64(k.Top))
	return maphash.Bytes(seed, b[:])
}
