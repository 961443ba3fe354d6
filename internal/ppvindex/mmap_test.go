package ppvindex

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// writeSampleIndex builds an index file with the sample vectors and returns
// its path.
func writeSampleIndex(t *testing.T) string {
	t.Helper()
	return writeIndexFile(t, sampleVectors())
}

// writeIndexFile builds an index file holding vectors and returns its path.
func writeIndexFile(t *testing.T, vectors map[graph.NodeID]sparse.Vector) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.ppv")
	w, err := CreateDisk(path)
	if err != nil {
		t.Fatalf("CreateDisk: %v", err)
	}
	for h, v := range vectors {
		if err := w.Put(h, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// TestMmapMatchesPread opens the same index in both read modes and checks
// that Get and GetView return identical records.
func TestMmapMatchesPread(t *testing.T) {
	path := writeSampleIndex(t)
	pread, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer pread.Close()
	mapped, err := OpenDiskWithOptions(path, DiskOptions{Mmap: true})
	if err != nil {
		t.Fatalf("OpenDiskWithOptions: %v", err)
	}
	defer mapped.Close()
	if pread.MmapActive() {
		t.Fatal("pread index reports MmapActive")
	}
	if !mapped.MmapActive() {
		t.Skip("mmap unsupported on this platform; fallback covered by pread tests")
	}

	for h, want := range sampleVectors() {
		for name, idx := range map[string]*DiskIndex{"pread": pread, "mmap": mapped} {
			got, ok, err := idx.Get(h)
			if err != nil || !ok {
				t.Fatalf("%s Get(%d): ok=%v err=%v", name, h, ok, err)
			}
			if got.L1Distance(want) != 0 {
				t.Fatalf("%s Get(%d) = %v, want %v", name, h, got, want)
			}
			view, ok, err := idx.GetView(h)
			if err != nil || !ok {
				t.Fatalf("%s GetView(%d): ok=%v err=%v", name, h, ok, err)
			}
			if view.Hub() != h || view.Len() != want.NonZeros() {
				t.Fatalf("%s view of %d: hub=%d len=%d, want len %d", name, h, view.Hub(), view.Len(), want.NonZeros())
			}
			if view.Vector().L1Distance(want) != 0 {
				t.Fatalf("%s view of %d decodes to %v, want %v", name, h, view.Vector(), want)
			}
			// Entries are sorted ascending.
			for i := 1; i < view.Len(); i++ {
				prev, _ := view.Entry(i - 1)
				cur, _ := view.Entry(i)
				if prev >= cur {
					t.Fatalf("%s view of %d not sorted: %d then %d", name, h, prev, cur)
				}
			}
			view.Release()
		}
	}
	if _, ok, err := mapped.GetView(9999); ok || err != nil {
		t.Fatalf("GetView(missing) = ok=%v err=%v, want miss", ok, err)
	}
}

// TestMmapTruncatedFile asserts that a file cut short opens (or reads) as
// ErrBadIndexFormat in mmap mode instead of faulting.
func TestMmapTruncatedFile(t *testing.T) {
	path := writeSampleIndex(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-records: the footer (and with it the directory) is
	// gone, so the open itself must fail cleanly.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskWithOptions(path, DiskOptions{Mmap: true}); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("open of truncated file = %v, want ErrBadIndexFormat", err)
	}
}

// TestMmapCorruptCount corrupts a record's entry count so it overruns the
// record region; both Get and GetView must answer ErrBadIndexFormat, not
// slice past the mapping.
func TestMmapCorruptCount(t *testing.T) {
	path := writeSampleIndex(t)
	idx, err := OpenDiskWithOptions(path, DiskOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find hub 3's record offset, then rewrite its count in place.
	off := idx.directory[graph.NodeID(3)]
	idx.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<30)
	if _, err := f.WriteAt(huge[:], int64(off)+4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, mmap := range []bool{true, false} {
		idx, err := OpenDiskWithOptions(path, DiskOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("reopen (mmap=%v): %v", mmap, err)
		}
		if _, _, err := idx.Get(3); !errors.Is(err, ErrBadIndexFormat) {
			t.Fatalf("Get with corrupt count (mmap=%v) = %v, want ErrBadIndexFormat", mmap, err)
		}
		if _, _, err := idx.GetView(3); !errors.Is(err, ErrBadIndexFormat) {
			t.Fatalf("GetView with corrupt count (mmap=%v) = %v, want ErrBadIndexFormat", mmap, err)
		}
		// The sibling record is untouched and still readable.
		if v, ok, err := idx.Get(7); err != nil || !ok || v.Get(9) != 0.01 {
			t.Fatalf("Get(7) after corruption (mmap=%v) = %v ok=%v err=%v", mmap, v, ok, err)
		}
		idx.Close()
	}
}

// TestMmapViewPinsClose verifies the drain contract: Close blocks until every
// outstanding mmap view is released, and reads arriving after Close observe
// ErrIndexClosed instead of a dead mapping.
func TestMmapViewPinsClose(t *testing.T) {
	path := writeSampleIndex(t)
	idx, err := OpenDiskWithOptions(path, DiskOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.MmapActive() {
		idx.Close()
		t.Skip("mmap unsupported on this platform")
	}
	view, ok, err := idx.GetView(3)
	if err != nil || !ok {
		t.Fatalf("GetView: ok=%v err=%v", ok, err)
	}
	closed := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		closed <- idx.Close()
	}()
	// Close must not complete while the view is outstanding.
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a view outstanding", err)
	default:
	}
	// The view stays readable until released.
	if got := view.Vector(); got.Get(1) != 0.5 {
		t.Fatalf("pinned view decoded %v", got)
	}
	view.Release()
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close after release: %v", err)
	}
	if _, _, err := idx.GetView(3); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("GetView after Close = %v, want ErrIndexClosed", err)
	}
	if _, _, err := idx.Get(3); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Get after Close = %v, want ErrIndexClosed", err)
	}
}

// TestBlockCacheViewMode exercises the raw-payload cache over a DiskIndex:
// view hits must not touch the inner index, Get must still decode correctly,
// and cached views must survive the inner index closing (compaction retires
// generations underneath the serving state).
func TestBlockCacheViewMode(t *testing.T) {
	path := writeSampleIndex(t)
	idx, err := OpenDiskWithOptions(path, DiskOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBlockCache(idx, 1<<20, 2)

	view, ok, err := cache.GetView(3)
	if err != nil || !ok {
		t.Fatalf("GetView through cache: ok=%v err=%v", ok, err)
	}
	want := sampleVectors()[3]
	if view.Vector().L1Distance(want) != 0 {
		t.Fatalf("cached view decodes wrong: %v", view.Vector())
	}
	reads := idx.Reads()
	for i := 0; i < 5; i++ {
		v2, ok, err := cache.GetView(3)
		if err != nil || !ok {
			t.Fatalf("warm GetView: ok=%v err=%v", ok, err)
		}
		v2.Release()
	}
	if idx.Reads() != reads {
		t.Fatalf("warm view hits performed %d inner reads", idx.Reads()-reads)
	}
	// Get through the view-mode cache decodes the retained payload.
	v, ok, err := cache.Get(3)
	if err != nil || !ok || v.L1Distance(want) != 0 {
		t.Fatalf("Get via view cache = %v ok=%v err=%v", v, ok, err)
	}
	if idx.Reads() != reads {
		t.Fatalf("warm Get hit performed inner reads")
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want hits>0 entries=1", st)
	}

	// Retained payloads are owned copies: close (unmap) the inner index and
	// the previously returned view must still decode safely.
	if err := idx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if view.Vector().L1Distance(want) != 0 {
		t.Fatalf("cached view invalid after inner close")
	}
	view.Release()
}
