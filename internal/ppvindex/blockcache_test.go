package ppvindex

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// countingIndex wraps an Index and counts Gets, with an optional gate that
// holds loads open so tests can pile up concurrent requests.
type countingIndex struct {
	Index
	gets atomic.Int64
	gate chan struct{} // when non-nil, Get blocks until it is closed
}

func (c *countingIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	c.gets.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return c.Index.Get(h)
}

func memIndexWith(t *testing.T, vectors map[graph.NodeID]sparse.Vector) *MemIndex {
	t.Helper()
	idx := NewMemIndex()
	for h, v := range vectors {
		if err := idx.Put(h, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	return idx
}

func TestBlockCacheHitsAvoidInnerReads(t *testing.T) {
	inner := &countingIndex{Index: memIndexWith(t, sampleVectors())}
	bc := NewBlockCache(inner, 1<<20, 4)

	for i := 0; i < 5; i++ {
		v, ok, err := bc.Get(3)
		if err != nil || !ok {
			t.Fatalf("Get(3) = %v, %v, %v", v, ok, err)
		}
		if v.Get(2) != 0.25 {
			t.Fatalf("Get(3)[2] = %v, want 0.25", v.Get(2))
		}
	}
	if got := inner.gets.Load(); got != 1 {
		t.Errorf("inner reads = %d, want 1 (first miss only)", got)
	}
	st := bc.Stats()
	if st.Hits != 4 || st.Misses != 1 || st.Loads != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 4 hits / 1 miss / 1 load / 1 entry", st)
	}
	if st.Bytes <= 0 || st.BudgetBytes != 1<<20 {
		t.Errorf("stats bytes = %d budget = %d", st.Bytes, st.BudgetBytes)
	}

	// Missing hubs pass through without caching or counting as entries.
	if _, ok, err := bc.Get(99); ok || err != nil {
		t.Errorf("Get(99) = %v, %v, want miss", ok, err)
	}
	if bc.Stats().Entries != 1 {
		t.Errorf("missing hub must not be cached")
	}
}

func TestBlockCacheBudgetEviction(t *testing.T) {
	vectors := make(map[graph.NodeID]sparse.Vector)
	for h := graph.NodeID(0); h < 8; h++ {
		vectors[h] = sparse.Vector{h: 0.5, h + 100: 0.25}
	}
	inner := &countingIndex{Index: memIndexWith(t, vectors)}
	// One shard so LRU order is global; budget fits ~3 two-entry blocks
	// (128 fixed + 2*48 = 224 bytes each).
	bc := NewBlockCache(inner, 700, 1)

	for h := graph.NodeID(0); h < 8; h++ {
		if _, ok, err := bc.Get(h); !ok || err != nil {
			t.Fatalf("Get(%d) = %v, %v", h, ok, err)
		}
	}
	st := bc.Stats()
	if st.Bytes > 700 {
		t.Errorf("cache holds %d bytes, budget 700", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions after exceeding the budget")
	}
	if st.Entries >= 8 {
		t.Errorf("entries = %d, want fewer than the 8 inserted", st.Entries)
	}

	// The most recently used hub must still be cached; re-reading it must not
	// touch the inner index again.
	before := inner.gets.Load()
	if _, ok, _ := bc.Get(7); !ok {
		t.Fatal("Get(7) after fill")
	}
	if inner.gets.Load() != before {
		t.Error("most recently used block should still be cached")
	}

	// A block larger than the whole budget is served but not retained.
	huge := sparse.New(64)
	for i := 0; i < 64; i++ {
		huge[graph.NodeID(1000+i)] = 0.001
	}
	if err := inner.Index.(*MemIndex).Put(200, huge); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := bc.Get(200); !ok || err != nil {
		t.Fatalf("Get(200) = %v, %v", ok, err)
	}
	if st := bc.Stats(); st.Bytes > 700 {
		t.Errorf("oversized block retained: %d bytes held", st.Bytes)
	}
}

func TestBlockCacheSingleflight(t *testing.T) {
	inner := &countingIndex{
		Index: memIndexWith(t, sampleVectors()),
		gate:  make(chan struct{}),
	}
	bc := NewBlockCache(inner, 1<<20, 4)

	const callers = 16
	var wg sync.WaitGroup
	results := make([]sparse.Vector, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, ok, err := bc.Get(7)
			if !ok || err != nil {
				t.Errorf("Get(7) = %v, %v", ok, err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the one permitted load is in flight and every other caller
	// has joined it (released any earlier, late starters find the block
	// cached and count as hits), then release it.
	for inner.gets.Load() == 0 || bc.Stats().Coalesced < callers-1 {
		runtime.Gosched()
	}
	close(inner.gate)
	wg.Wait()

	if got := inner.gets.Load(); got != 1 {
		t.Errorf("inner reads = %d, want 1 (singleflight)", got)
	}
	st := bc.Stats()
	if st.Coalesced == 0 {
		t.Errorf("stats = %+v, expected coalesced waiters", st)
	}
	for i := 1; i < callers; i++ {
		if results[i].Get(9) != results[0].Get(9) {
			t.Fatalf("caller %d saw a different vector", i)
		}
	}
}

func TestBlockCacheInvalidate(t *testing.T) {
	mem := memIndexWith(t, sampleVectors())
	inner := &countingIndex{Index: mem}
	bc := NewBlockCache(inner, 1<<20, 4)

	for h := range sampleVectors() {
		if _, ok, err := bc.Get(h); !ok || err != nil {
			t.Fatalf("Get(%d) = %v, %v", h, ok, err)
		}
	}

	// Simulate ApplyUpdate: hub 3's prime PPV is recomputed, its block must
	// be dropped so the next Get sees the new record.
	if err := mem.Put(3, sparse.Vector{5: 0.9}); err != nil {
		t.Fatal(err)
	}
	if dropped := bc.Invalidate([]graph.NodeID{3, 12345}); dropped != 1 {
		t.Errorf("Invalidate dropped %d blocks, want 1", dropped)
	}
	v, ok, err := bc.Get(3)
	if !ok || err != nil {
		t.Fatalf("Get(3) after invalidate = %v, %v", ok, err)
	}
	if v.Get(5) != 0.9 {
		t.Errorf("Get(3) returned the stale block: %v", v)
	}
	// Untouched hubs stay cached.
	before := inner.gets.Load()
	if _, ok, _ := bc.Get(7); !ok {
		t.Fatal("Get(7)")
	}
	if inner.gets.Load() != before {
		t.Error("invalidation of hub 3 must not evict hub 7")
	}
	if st := bc.Stats(); st.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", st.Invalidations)
	}
}

func TestBlockCacheInvalidateMarksInflightStale(t *testing.T) {
	mem := memIndexWith(t, sampleVectors())
	inner := &countingIndex{Index: mem, gate: make(chan struct{})}
	bc := NewBlockCache(inner, 1<<20, 4)

	done := make(chan sparse.Vector, 1)
	go func() {
		v, _, _ := bc.Get(7)
		done <- v
	}()
	for inner.gets.Load() == 0 {
	}
	// The load of the old record is in flight; the update lands now.
	if err := mem.Put(7, sparse.Vector{8: 0.7}); err != nil {
		t.Fatal(err)
	}
	bc.Invalidate([]graph.NodeID{7})
	close(inner.gate)
	<-done

	// Whatever the raced load returned, the cache must not serve the
	// pre-invalidation block afterwards.
	v, ok, err := bc.Get(7)
	if !ok || err != nil {
		t.Fatalf("Get(7) = %v, %v", ok, err)
	}
	if v.Get(8) != 0.7 {
		t.Errorf("stale block survived invalidation: %v", v)
	}
}

func TestBlockCacheOverDiskIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.ppv")
	w, err := CreateDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range sampleVectors() {
		if err := w.Put(h, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	bc := NewBlockCache(idx, 1<<20, 4)
	for i := 0; i < 3; i++ {
		for h, want := range sampleVectors() {
			got, ok, err := bc.Get(h)
			if !ok || err != nil {
				t.Fatalf("Get(%d) = %v, %v", h, ok, err)
			}
			if d := got.L1Distance(want); d > 1e-12 {
				t.Errorf("Get(%d) differs by %v", h, d)
			}
		}
	}
	if idx.Reads() != int64(len(sampleVectors())) {
		t.Errorf("disk reads = %d, want %d (one per hub, rest cached)", idx.Reads(), len(sampleVectors()))
	}
	if !bc.Has(7) || bc.Has(5) {
		t.Error("Has must delegate to the disk index")
	}
	if bc.Len() != idx.Len() || bc.SizeBytes() != idx.SizeBytes() {
		t.Error("Len/SizeBytes must delegate to the disk index")
	}
}

func TestBlockCachePropagatesErrors(t *testing.T) {
	inner := &erroringIndex{}
	bc := NewBlockCache(inner, 1<<20, 2)
	if _, _, err := bc.Get(1); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	// Errors must not be cached: the next Get retries the inner index.
	if _, _, err := bc.Get(1); !errors.Is(err, errBoom) {
		t.Fatalf("retry err = %v, want errBoom", err)
	}
	if inner.gets != 2 {
		t.Errorf("inner gets = %d, want 2 (errors are not cached)", inner.gets)
	}
}

var errBoom = errors.New("boom")

type erroringIndex struct{ gets int }

func (e *erroringIndex) Get(graph.NodeID) (sparse.Vector, bool, error) {
	e.gets++
	return nil, false, errBoom
}
func (e *erroringIndex) Has(graph.NodeID) bool { return true }
func (e *erroringIndex) Hubs() []graph.NodeID  { return nil }
func (e *erroringIndex) Len() int              { return 0 }
func (e *erroringIndex) SizeBytes() int64      { return 0 }
