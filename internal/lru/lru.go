// Package lru is the one cache mechanism of the serving stack: a sharded,
// byte-budgeted LRU map with per-key singleflight loading. The query-result
// cache (internal/server) and the hub-block cache (internal/ppvindex) are
// both thin users of it.
package lru

import (
	"errors"
	"sync"
)

// ErrLoadPanicked is what callers sharing a load receive when that load
// panicked; the panic itself is re-raised in the caller that ran the load.
var ErrLoadPanicked = errors.New("lru: load panicked")

// Cache maps K to V under a total byte budget split evenly across shards.
// Each shard is an independent mutex, LRU list and key map, so concurrent
// lookups of different keys rarely contend. Do coalesces concurrent misses
// of one key into a single load.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64
	budget int64
}

type shard[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	// lru is the sentinel of a ring of the retained entries: lru.next is the
	// most recently used, lru.prev the next to evict.
	lru   entry[K, V]
	items map[K]*entry[K, V]
	// flights holds the load in progress per key; a load whose flight is no
	// longer registered when it ends (Invalidate removed it) is not retained.
	flights map[K]*flight[V]
	st      Stats
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Outcome says how Do answered.
type Outcome uint8

const (
	Hit    Outcome = iota // from a retained entry
	Loaded                // by this call's own load
	Shared                // by another call's in-flight load
)

// Stats is a point-in-time summary, aggregated over shards. Misses counts
// every lookup that found no entry, or one that failed Do's freshness test;
// in Do each miss shares a flight (Coalesced) or starts one (Loads), and a
// shared value that fails the test is followed by another of the two. Puts
// counts every retained store, replacements included; Invalidations counts
// entries dropped by Invalidate, InvalidateFunc and a failed freshness test.
type Stats struct {
	Hits, Misses, Coalesced, Loads int64
	Puts, Evictions, Invalidations int64
	Entries                        int
	Bytes, BudgetBytes             int64
}

// New creates a cache of budget bytes over numShards shards (at least one);
// hash picks a key's shard. Callers whose keys come from clients should pass
// a seeded hash so no client can pile its keys onto one shard. A shard
// retains nothing larger than budget/numShards, so a non-positive budget
// makes a cache that only coalesces.
func New[K comparable, V any](budget int64, numShards int, hash func(K) uint64) *Cache[K, V] {
	c := &Cache[K, V]{shards: make([]shard[K, V], numShards), hash: hash, budget: budget}
	for i := range c.shards {
		s := &c.shards[i]
		s.budget = budget / int64(numShards)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		s.items = make(map[K]*entry[K, V])
		s.flights = make(map[K]*flight[V])
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[c.hash(k)%uint64(len(c.shards))]
}

// Get returns the value retained for k, promoting it to most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(k, nil)
}

// getLocked is a lookup of k: a retained value that fails fresh (unless nil)
// is dropped, and counted as an invalidation and a miss.
func (s *shard[K, V]) getLocked(k K, fresh func(V) bool) (V, bool) {
	e, ok := s.items[k]
	if ok && fresh != nil && !fresh(e.val) {
		s.removeLocked(e)
		s.st.Invalidations++
		ok = false
	}
	if !ok {
		s.st.Misses++
		var zero V
		return zero, false
	}
	s.st.Hits++
	e.unlink()
	s.pushFront(e)
	return e.val, true
}

// Put retains v for k at the given size, replacing any previous value, and
// evicts from the least recently used end until the shard is back under
// budget. A value larger than a whole shard's budget is not retained.
func (c *Cache[K, V]) Put(k K, v V, size int64) {
	s := c.shardFor(k)
	s.mu.Lock()
	s.putLocked(k, v, size)
	s.mu.Unlock()
}

func (s *shard[K, V]) putLocked(k K, v V, size int64) {
	if size > s.budget {
		return
	}
	s.st.Puts++
	e, ok := s.items[k]
	if ok {
		e.unlink()
		s.bytes -= e.size
		e.val, e.size = v, size
	} else {
		e = &entry[K, V]{key: k, val: v, size: size}
		s.items[k] = e
	}
	s.pushFront(e)
	s.bytes += size
	for s.bytes > s.budget {
		s.removeLocked(s.lru.prev)
		s.st.Evictions++
	}
}

func (e *entry[K, V]) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &s.lru, s.lru.next
	s.lru.next.prev = e
	s.lru.next = e
}

func (s *shard[K, V]) removeLocked(e *entry[K, V]) {
	e.unlink()
	delete(s.items, e.key)
	s.bytes -= e.size
}

// Do returns the value for k: the retained one, the one a load already in
// flight for k produces, or the one load produces, with at most one load per
// key in flight. load receives end, which closes the flight to later callers
// and, when retain is set and no Invalidate(k) ran meanwhile, retains v at
// size. A load may call end early — before it releases a lock that keeps its
// result current — and Do ends the flight without retaining when load
// returns, panics included. Callers that joined the flight get load's return
// values, or ErrLoadPanicked.
//
// fresh, unless nil, is the test a value must pass to be served. A retained
// value that fails it is dropped, and the lookup counts as a miss and an
// invalidation; a shared flight whose value fails it is not served, and Do
// loads again. fresh runs under the shard's lock on a lookup, so it must be
// quick and must not call the cache.
func (c *Cache[K, V]) Do(k K, fresh func(V) bool, load func(end func(v V, size int64, retain bool)) (V, error)) (V, Outcome, error) {
	s := c.shardFor(k)
	s.mu.Lock()
	if v, ok := s.getLocked(k, fresh); ok {
		s.mu.Unlock()
		return v, Hit, nil
	}
	return s.miss(k, fresh, load)
}

// miss is Do past a failed lookup, entered with s.mu held. It is kept out of
// Do so that the hit path stays a small frame with no defer.
func (s *shard[K, V]) miss(k K, fresh func(V) bool, load func(end func(v V, size int64, retain bool)) (V, error)) (V, Outcome, error) {
	for {
		fl, ok := s.flights[k]
		if !ok {
			break
		}
		s.st.Coalesced++
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil || fresh == nil || fresh(fl.val) {
			return fl.val, Shared, fl.err
		}
		s.mu.Lock()
	}
	fl := &flight[V]{done: make(chan struct{}), err: ErrLoadPanicked}
	s.flights[k] = fl
	s.st.Loads++
	s.mu.Unlock()

	end := func(v V, size int64, retain bool) {
		s.mu.Lock()
		if s.flights[k] == fl {
			delete(s.flights, k)
			if retain {
				s.putLocked(k, v, size)
			}
		}
		s.mu.Unlock()
	}
	defer func() {
		var zero V
		end(zero, 0, false)
		close(fl.done)
	}()
	fl.val, fl.err = load(end)
	return fl.val, Loaded, fl.err
}

// Invalidate drops the value retained for k and reports whether there was
// one. A load of k in flight is detached, so its value is not retained when
// it ends; callers already sharing it still receive it, and the next Do
// starts a fresh load.
func (c *Cache[K, V]) Invalidate(k K) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.flights, k)
	e, ok := s.items[k]
	if ok {
		s.removeLocked(e)
		s.st.Invalidations++
	}
	return ok
}

// InvalidateFunc drops every retained value for which stale reports true and
// returns how many it dropped. Loads in flight have no value to judge and are
// left alone: a caller whose load begun before the sweep may end after it
// tags values, so that a lookup can refuse such a fill.
func (c *Cache[K, V]) InvalidateFunc(stale func(K, V) bool) int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.lru.next; e != &s.lru; {
			next := e.next
			if stale(e.key, e.val) {
				s.removeLocked(e)
				s.st.Invalidations++
				dropped++
			}
			e = next
		}
		s.mu.Unlock()
	}
	return dropped
}

// Stats aggregates the per-shard counters.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{BudgetBytes: c.budget}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.st.Hits
		st.Misses += s.st.Misses
		st.Coalesced += s.st.Coalesced
		st.Loads += s.st.Loads
		st.Puts += s.st.Puts
		st.Evictions += s.st.Evictions
		st.Invalidations += s.st.Invalidations
		st.Entries += len(s.items)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
