package server

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// fakeAnswer builds a cachedAnswer with the given hub dependencies.
func fakeAnswer(reach ...graph.NodeID) *cachedAnswer {
	entries := make([]sparse.Entry, len(reach))
	for i, n := range reach {
		entries[i] = sparse.Entry{Node: n, Score: 0.1}
	}
	return &cachedAnswer{
		result: &cluster.Result{},
		top:    []sparse.Entry{{Node: 1, Score: 0.5}},
		reach:  appendReach(entries),
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

// TestCacheSizeEstimate checks what a retained answer holds and costs: it is
// keyed by its top's prefix class, holds that class's ranking and the reach
// list of its estimate but not the estimate, and is accounted at sizeBytes,
// which follows the ranking and the reach list.
func TestCacheSizeEstimate(t *testing.T) {
	engine := testEngine(t, socialGraph(t, 300), 30)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := engine.Query(17, core.StopCondition{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var nonZero []graph.NodeID
	for _, e := range res.Entries {
		if e.Score != 0 {
			nonZero = append(nonZero, e.Node)
		}
	}
	var total int64
	var sizes []int64
	for _, top := range []int{3, 100} {
		if status, _, body := get(t, ts, fmt.Sprintf("/v1/ppv?node=17&eta=2&top=%d", top)); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		class := topClass(top)
		a, ok := srv.cache.Get(CacheKey{Node: 17, Eta: 2, Top: class})
		if !ok {
			t.Fatalf("top=%d: computed answer was not retained under class %d", top, class)
		}
		if a.result.Entries != nil || a.result.Spans != nil {
			t.Fatalf("top=%d: the retained answer holds the estimate (%d entries) or spans", top, len(a.result.Entries))
		}
		if want := min(class, len(res.Entries)); len(a.top) != want {
			t.Fatalf("top=%d: holds a %d-entry ranking, want %d", top, len(a.top), want)
		}
		if got := decodeReach(t, a.reach); !slices.Equal(got, nonZero) {
			t.Fatalf("top=%d: reach decodes to %d nodes, want the estimate's %d non-zero ones", top, len(got), len(nonZero))
		}
		total += a.sizeBytes()
		sizes = append(sizes, a.sizeBytes())
	}
	if st := srv.cache.Stats(); st.Bytes != total || st.Entries != 2 {
		t.Fatalf("accounted %d bytes in %d entries, want two of %d", st.Bytes, st.Entries, total)
	}
	if est := int64(len(res.Entries)) * 16; sizes[0] >= est {
		t.Fatalf("a 10-entry answer costs %d bytes, no less than its %d-entry estimate (%d bytes)", sizes[0], len(res.Entries), est)
	}
	if sizes[1] <= sizes[0] {
		t.Fatalf("a %d-entry ranking costs %d bytes, a 10-entry one %d", topClass(100), sizes[1], sizes[0])
	}
	small := fakeAnswer()
	if big := fakeAnswer(7, 8); big.sizeBytes() <= small.sizeBytes() || small.sizeBytes() <= 0 {
		t.Fatalf("sizeBytes %d (a 2-node reach list) vs %d (none)", big.sizeBytes(), small.sizeBytes())
	}
}

// TestCacheSizeMatchesHeap retains 2 000 answers and checks that the live
// heap grows by 0.5x to 2x of the bytes the cache accounts for them.
func TestCacheSizeMatchesHeap(t *testing.T) {
	engine := testEngine(t, socialGraph(t, 1000), 50)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		// Two collections: the first moves pooled buffers to the victim
		// cache, the second frees them.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, top := range []int{defaultTopK, 40} {
		for q := 0; q < 1000; q++ {
			if _, _, err := srv.answer(queryRequest{node: graph.NodeID(q), eta: 2, top: top}); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := float64(heap()) - float64(before)
	st := srv.cache.Stats()
	if st.Entries != 2000 {
		t.Fatalf("%d answers retained, want 2000", st.Entries)
	}
	if ratio := grown / float64(st.Bytes); ratio < 0.5 || ratio > 2 {
		t.Fatalf("heap grew %.0f bytes for %d accounted (ratio %.2f), want 0.5x to 2x", grown, st.Bytes, ratio)
	}
}

// TestReachMatchesEstimateRule checks the reach list against the rule it
// replaces: for 200 sources and random touched sets of 1 to 8 nodes,
// reachesAny on the decoded list decides as a lookup of every touched node in
// the full sorted estimate does (a touched node with a non-zero score).
func TestReachMatchesEstimateRule(t *testing.T) {
	const nodes = 300
	engine := testEngine(t, socialGraph(t, nodes), 30)
	rng := rand.New(rand.NewSource(11))
	var hits, misses int
	for src := 0; src < 200; src++ {
		qs, err := engine.NewQuery(graph.NodeID(src))
		if err != nil {
			t.Fatal(err)
		}
		entries := qs.Run(core.StopCondition{MaxIterations: rng.Intn(3)}).Entries
		qs.Close()
		// Zero the score of a few entries: the rule counts only non-zero ones.
		for i := range entries {
			if rng.Intn(10) == 0 {
				entries[i].Score = 0
			}
		}
		reach := appendReach(entries)
		for trial := 0; trial < 20; trial++ {
			touched := make([]graph.NodeID, 1+rng.Intn(8))
			for i := range touched {
				touched[i] = graph.NodeID(rng.Intn(nodes))
			}
			slices.Sort(touched)
			touched = slices.Compact(touched)
			want := false
			for _, n := range touched {
				if sparse.Lookup(entries, n) != 0 {
					want = true
				}
			}
			if got := reachesAny(reach, touched); got != want {
				t.Fatalf("source %d, touched %v: reach says %v, the estimate %v", src, touched, got, want)
			}
			if want {
				hits++
			} else {
				misses++
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d reaching and %d missing touched sets: the property needs both", hits, misses)
	}
}

// decodeReach decodes a reach list into its ascending node ids.
func decodeReach(t *testing.T, reach []byte) []graph.NodeID {
	t.Helper()
	var out []graph.NodeID
	node := int64(-1)
	for len(reach) > 0 {
		d, w := binary.Uvarint(reach)
		if w <= 0 {
			t.Fatalf("malformed reach list at %x", reach)
		}
		node += int64(d)
		out = append(out, graph.NodeID(node))
		reach = reach[w:]
	}
	return out
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
		"eta": func(k *CacheKey, i int) { k.Eta = 2 + 256*i },
		"top": func(k *CacheKey, i int) { k.Top = defaultTopK + 256*i },
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
		return reachesAny(ans.reach, []graph.NodeID{7})
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
