package ppvindex

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// countingIndex wraps a DiskIndex and counts GetViews — the only inner read
// a BlockCache performs — with an optional gate that holds loads open so
// tests can pile up concurrent requests. The record is read before the gate,
// so a gated load returns what was on disk when it started.
type countingIndex struct {
	cur   atomic.Pointer[DiskIndex]
	views atomic.Int64
	gate  chan struct{} // when non-nil, GetView blocks until it is closed
}

func (c *countingIndex) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	c.views.Add(1)
	view, ok, err := c.cur.Load().GetView(h)
	if c.gate != nil {
		<-c.gate
	}
	return view, ok, err
}

func (c *countingIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	return c.cur.Load().Get(h)
}
func (c *countingIndex) Has(h graph.NodeID) bool { return c.cur.Load().Has(h) }
func (c *countingIndex) Hubs() []graph.NodeID    { return c.cur.Load().Hubs() }
func (c *countingIndex) Len() int                { return c.cur.Load().Len() }
func (c *countingIndex) SizeBytes() int64        { return c.cur.Load().SizeBytes() }

func countingDiskIndex(t *testing.T, vectors map[graph.NodeID]sparse.Vector) *countingIndex {
	t.Helper()
	idx, err := OpenDisk(writeIndexFile(t, vectors))
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { idx.Close() })
	c := &countingIndex{}
	c.cur.Store(idx)
	return c
}

func TestBlockCacheHitsAvoidInnerReads(t *testing.T) {
	inner := countingDiskIndex(t, sampleVectors())
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
	if got := inner.views.Load(); got != 1 {
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

	// View hits alias the retained payload: no inner read, no allocation.
	allocs := testing.AllocsPerRun(100, func() {
		view, ok, err := bc.GetView(3)
		if err != nil || !ok || view.Len() != 3 {
			t.Fatalf("GetView(3) hit: len=%d ok=%v err=%v", view.Len(), ok, err)
		}
		view.Release()
	})
	if allocs != 0 {
		t.Errorf("GetView hit allocates %v times, want 0", allocs)
	}
	if got := inner.views.Load(); got != 1 {
		t.Errorf("inner reads after view hits = %d, want 1", got)
	}
}

func TestBlockCacheBudgetEviction(t *testing.T) {
	vectors := make(map[graph.NodeID]sparse.Vector)
	for h := graph.NodeID(0); h < 8; h++ {
		vectors[h] = sparse.Vector{h: 0.5, h + 100: 0.25}
	}
	// A block larger than the whole budget, read last.
	huge := sparse.New(128)
	for i := 0; i < 128; i++ {
		huge[graph.NodeID(1000+i)] = 0.001
	}
	vectors[200] = huge
	inner := countingDiskIndex(t, vectors)
	// One shard so LRU order is global; the budget fits 3 two-entry blocks
	// (128 fixed + 2 entries of a one-byte gap and a score = 138 bytes each)
	// and not a fourth.
	const budget = 500
	bc := NewBlockCache(inner, budget, 1)

	for h := graph.NodeID(0); h < 8; h++ {
		if _, ok, err := bc.Get(h); !ok || err != nil {
			t.Fatalf("Get(%d) = %v, %v", h, ok, err)
		}
	}
	st := bc.Stats()
	if st.Bytes > budget {
		t.Errorf("cache holds %d bytes, budget %d", st.Bytes, budget)
	}
	if st.Evictions != 5 || st.Entries != 3 {
		t.Errorf("evictions = %d entries = %d, want 5 and 3 (8 blocks of 138 bytes under %d)", st.Evictions, st.Entries, budget)
	}

	// The most recently used hub must still be cached; re-reading it must not
	// touch the inner index again.
	before := inner.views.Load()
	if _, ok, _ := bc.Get(7); !ok {
		t.Fatal("Get(7) after fill")
	}
	if inner.views.Load() != before {
		t.Error("most recently used block should still be cached")
	}
	// The least recently used one was evicted and costs an inner read.
	if _, ok, _ := bc.Get(0); !ok {
		t.Fatal("Get(0) after fill")
	}
	if inner.views.Load() != before+1 {
		t.Error("least recently used block should have been evicted")
	}

	// The oversized block (128 + 128*5 = 768 bytes) is served, not retained.
	v, ok, err := bc.Get(200)
	if !ok || err != nil || v.NonZeros() != 128 {
		t.Fatalf("Get(200) = %d entries, %v, %v", v.NonZeros(), ok, err)
	}
	if st := bc.Stats(); st.Bytes > budget || st.Entries != 3 {
		t.Errorf("oversized block retained: %d bytes in %d entries", st.Bytes, st.Entries)
	}
}

func TestBlockCacheSingleflight(t *testing.T) {
	inner := countingDiskIndex(t, sampleVectors())
	inner.gate = make(chan struct{})
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
	for inner.views.Load() == 0 || bc.Stats().Coalesced < callers-1 {
		runtime.Gosched()
	}
	close(inner.gate)
	wg.Wait()

	if got := inner.views.Load(); got != 1 {
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

func TestBlockCacheOverDiskIndex(t *testing.T) {
	idx, err := OpenDisk(writeSampleIndex(t))
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
			if d := got.L1Distance(storedVector(want)); d != 0 {
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
	if _, _, err := bc.GetView(1); !errors.Is(err, errBoom) {
		t.Fatalf("GetView err = %v, want errBoom", err)
	}
	if inner.views != 3 {
		t.Errorf("inner reads = %d, want 3 (errors are not cached)", inner.views)
	}
	if st := bc.Stats(); st.Entries != 0 {
		t.Errorf("a failed load left %d entries", st.Entries)
	}
}

var errBoom = errors.New("boom")

type erroringIndex struct{ views int }

func (e *erroringIndex) GetView(graph.NodeID) (HubRecordView, bool, error) {
	e.views++
	return HubRecordView{}, false, errBoom
}
func (e *erroringIndex) Get(graph.NodeID) (sparse.Vector, bool, error) { return nil, false, errBoom }
func (e *erroringIndex) Has(graph.NodeID) bool                         { return true }
func (e *erroringIndex) Hubs() []graph.NodeID                          { return nil }
func (e *erroringIndex) Len() int                                      { return 0 }
func (e *erroringIndex) SizeBytes() int64                              { return 0 }
