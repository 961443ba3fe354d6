package ppvindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

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

// TestHeapSourceMatchesMapping builds the sample index over a heap copy of
// its file, the byte source of platforms without mmap, and checks that every
// record it serves is byte-equal to the one OpenDisk serves, and decodes to
// the stored vector in ascending node order.
func TestHeapSourceMatchesMapping(t *testing.T) {
	path := writeSampleIndex(t)
	mapped, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { mapped.Close() })
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := openBytes(path, raw, false)
	if err != nil {
		t.Fatalf("openBytes: %v", err)
	}
	t.Cleanup(func() { heap.Close() })
	if heap.MmapActive() {
		t.Fatal("the heap-built index reports MmapActive")
	}
	if heap.Len() != mapped.Len() || heap.SizeBytes() != mapped.SizeBytes() {
		t.Fatalf("heap index has %d hubs in %d bytes, mapped %d in %d", heap.Len(), heap.SizeBytes(), mapped.Len(), mapped.SizeBytes())
	}

	for h, want := range sampleVectors() {
		var payloads [][]byte
		for name, idx := range map[string]*DiskIndex{"mapped": mapped, "heap": heap} {
			view, ok, err := idx.GetView(h)
			if err != nil || !ok {
				t.Fatalf("%s GetView(%d): ok=%v err=%v", name, h, ok, err)
			}
			// Released after the last read of its bytes, the comparison below.
			t.Cleanup(view.Release)
			payloads = append(payloads, view.EntryBytes())
			if view.Vector().L1Distance(storedVector(want)) != 0 {
				t.Fatalf("%s view of %d decodes to %v, want %v", name, h, view.Vector(), storedVector(want))
			}
			if !strictlyAscending(view.EntryBytes()) {
				t.Fatalf("%s view of %d does not decode whole in ascending node order", name, h)
			}
		}
		if !bytes.Equal(payloads[0], payloads[1]) {
			t.Fatalf("hub %d: the heap and mapped views hold different bytes", h)
		}
	}
	for _, idx := range []*DiskIndex{mapped, heap} {
		if _, ok, err := idx.GetView(9999); ok || err != nil {
			t.Fatalf("GetView(missing) = ok=%v err=%v, want miss", ok, err)
		}
	}
}

// TestMmapTruncatedFile asserts that a file cut short before the open fails
// it with ErrBadIndexFormat instead of faulting.
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
	if _, err := OpenDisk(path); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("open of truncated file = %v, want ErrBadIndexFormat", err)
	}
}

// TestMmapCorruptCount corrupts a record's entry count so it overruns the
// record region. Written under the open index, the flip fails Get and GetView
// with ErrBadIndexFormat instead of slicing past the mapping, and leaves the
// sibling record readable; a reopen refuses the file. The write reaches only a
// mapping, so the test holds for the mapping only.
func TestMmapCorruptCount(t *testing.T) {
	path := writeSampleIndex(t)
	off := recordOffset(t, path, 3)
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if !idx.MmapActive() {
		t.Skip("the index holds a heap copy of the file here, which a write under it does not reach")
	}
	writeAt(t, path, off+4, binary.LittleEndian.AppendUint32(nil, 1<<30))

	if _, _, err := idx.Get(3); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("Get with corrupt count = %v, want ErrBadIndexFormat", err)
	}
	if _, _, err := idx.GetView(3); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("GetView with corrupt count = %v, want ErrBadIndexFormat", err)
	}
	// The sibling record is untouched and still readable.
	if v, ok, err := idx.Get(7); err != nil || !ok || v.Get(9) != float64(sparse.StoredScore(0.01)) {
		t.Fatalf("Get(7) after corruption = %v ok=%v err=%v", v, ok, err)
	}
	openFails(t, path)
}

// TestViewOutlivesClose: Close only marks the index closed. It returns at
// once with a view outstanding; a GetView or Get after it fails with
// ErrIndexClosed; and the view, which then holds the only reference to the
// index, still decodes its record bit-identically after forced GC rounds.
func TestViewOutlivesClose(t *testing.T) {
	idx, err := OpenDisk(writeSampleIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	view, ok, err := idx.GetView(3)
	if err != nil || !ok {
		t.Fatalf("GetView: ok=%v err=%v", ok, err)
	}
	want := bytes.Clone(view.EntryBytes())
	start := time.Now()
	if err := idx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a view outstanding", d)
	}
	if _, _, err := idx.GetView(3); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("GetView after Close = %v, want ErrIndexClosed", err)
	}
	if _, _, err := idx.Get(3); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Get after Close = %v, want ErrIndexClosed", err)
	}
	idx = nil
	for range 3 {
		runtime.GC()
		time.Sleep(time.Millisecond) // cleanups run on a goroutine of their own
	}
	if got := view.EntryBytes(); !bytes.Equal(got, want) {
		t.Fatalf("the view decodes %v after Close and GC, want %v", got, want)
	}
	view.Release()
}

// TestBlockCacheViewMode exercises the raw-payload cache over a DiskIndex:
// view hits must not touch the inner index, Get must still decode correctly,
// and cached views must survive the inner index closing.
func TestBlockCacheViewMode(t *testing.T) {
	path := writeSampleIndex(t)
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBlockCache(idx, 1<<20, 2)

	view, ok, err := cache.GetView(3)
	if err != nil || !ok {
		t.Fatalf("GetView through cache: ok=%v err=%v", ok, err)
	}
	want := storedVector(sampleVectors()[3])
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

	// Retained payloads are owned copies: close the inner index and
	// the previously returned view must still decode safely.
	if err := idx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if view.Vector().L1Distance(want) != 0 {
		t.Fatalf("cached view invalid after inner close")
	}
	view.Release()
}
