// pool.go holds the pooled per-query working set of the online hot loop.
// Every query needs two accumulators (running estimate + per-step increment),
// two frontier slices (current + next) and — when the query node is not a hub
// — the dense scratch of the prime push; recycling them via sync.Pool means a
// steady-state serving workload runs iteration 0 and the
// scheduled-approximation loop without allocating per query. The pool hands
// out whole bundles, not individual buffers, so a query can never mix
// generations.
package core

import (
	"sync"
	"sync/atomic"

	"fastppv/internal/graph"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
)

// frontierEntry is one border hub of the next iteration with its prefix
// reachability weight (Theorem 4). Frontiers are kept as slices sorted by
// ascending hub id — they are built by scanning the (sorted) increment
// entries, so the deterministic expansion order of Step comes for free,
// without the per-iteration map+sort of the old path.
type frontierEntry struct {
	hub    graph.NodeID
	prefix float64
}

// queryBufs is the reusable working set of one in-flight query.
type queryBufs struct {
	acc          sparse.Accumulator // running estimate
	inc          sparse.Accumulator // per-step increment
	frontier     []frontierEntry
	nextFrontier []frontierEntry
	// scratch serves every prime push made on behalf of this bundle's holder.
	// It resets itself per push and grows to the largest graph it has seen,
	// so a bundle is safe to hand between engines of different sizes.
	scratch prime.Scratch
	// record holds the encoded payload of a hub whose record was missing or
	// unreadable and had to be pushed on the fly, between the push and the
	// staging call that folds it.
	record []byte
}

func (b *queryBufs) reset() {
	b.acc.Reset()
	b.inc.Reset()
	b.frontier = b.frontier[:0]
	b.nextFrontier = b.nextFrontier[:0]
	b.record = b.record[:0]
}

var (
	queryBufPool sync.Pool
	poolGets     atomic.Int64
	poolHits     atomic.Int64
)

// getQueryBufs takes a buffer bundle from the pool (counting hit/miss so
// /metrics can expose the steady-state reuse rate). Bundles are reset on the
// way in (putQueryBufs), so pooled ones are ready to use as-is.
func getQueryBufs() *queryBufs {
	poolGets.Add(1)
	if v := queryBufPool.Get(); v != nil {
		poolHits.Add(1)
		return v.(*queryBufs)
	}
	return &queryBufs{}
}

// putQueryBufs resets a bundle and returns it to the pool. Resetting at Put
// time (not after Get) drops the bundle's references to query state before it
// sits in the pool, so the GC can reclaim what the buffers pointed at. The
// caller must not retain any slice or view of it afterwards; boundary results
// (Result.Estimate, PartialIncrement) are always materialized copies, never
// pooled storage.
func putQueryBufs(b *queryBufs) {
	if b != nil {
		b.reset()
		queryBufPool.Put(b)
	}
}

// PoolStats reports the cumulative query-buffer pool behaviour of this
// process: Gets counts bundle acquisitions, Hits the acquisitions served by
// reuse instead of a fresh allocation.
type PoolStats struct {
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
}

// HitRate returns Hits/Gets, or 0 before any query ran. Under a steady
// serving workload it converges to ~1; a sustained drop signals queries
// leaking bundles (missing Close) or churn exceeding the pool's retention.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// QueryPoolStats returns the process-wide pool counters.
func QueryPoolStats() PoolStats {
	return PoolStats{Gets: poolGets.Load(), Hits: poolHits.Load()}
}
