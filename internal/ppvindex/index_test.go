package ppvindex

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

func sampleVectors() map[graph.NodeID]sparse.Vector {
	return map[graph.NodeID]sparse.Vector{
		3:  {1: 0.5, 2: 0.25, 3: 0.15},
		7:  {7: 0.15, 9: 0.01},
		11: {0: 1e-3},
	}
}

func TestMemIndexRoundTrip(t *testing.T) {
	idx := NewMemIndex()
	for h, v := range sampleVectors() {
		if err := idx.Put(h, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d, want 3", idx.Len())
	}
	v, ok, err := idx.Get(3)
	if err != nil || !ok {
		t.Fatalf("Get(3) = %v, %v, %v", v, ok, err)
	}
	if v.Get(2) != 0.25 {
		t.Errorf("Get(3)[2] = %v, want 0.25", v.Get(2))
	}
	if _, ok, _ := idx.Get(99); ok {
		t.Error("Get(99) should miss")
	}
	if !idx.Has(7) || idx.Has(8) {
		t.Error("Has results wrong")
	}
	hubs := idx.Hubs()
	if len(hubs) != 3 || hubs[0] != 3 || hubs[2] != 11 {
		t.Errorf("Hubs = %v, want [3 7 11]", hubs)
	}
	if idx.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	stats := StatsOf(idx)
	if stats.Hubs != 3 || stats.TotalEntries != 6 {
		t.Errorf("StatsOf = %+v, want 3 hubs and 6 entries", stats)
	}
	if stats.String() == "" {
		t.Error("Stats.String should not be empty")
	}
}

func TestMemIndexPutReplaces(t *testing.T) {
	idx := NewMemIndex()
	_ = idx.Put(1, sparse.Vector{2: 0.5})
	_ = idx.Put(1, sparse.Vector{3: 0.25})
	v, _, _ := idx.Get(1)
	if v.Get(2) != 0 || v.Get(3) != 0.25 {
		t.Errorf("Put should replace the previous vector, got %v", v)
	}
	if idx.Len() != 1 {
		t.Errorf("Len = %d, want 1", idx.Len())
	}
}

// TestMemIndexViewsSurviveReplacement: a stored payload is replaced, never
// written, so a view taken before the hub is rewritten keeps reading the old
// record, and SizeBytes follows the replacement.
func TestMemIndexViewsSurviveReplacement(t *testing.T) {
	idx := NewMemIndex()
	first := rawEntries(2, 5, 9)
	if err := idx.PutEncoded(1, first); err != nil {
		t.Fatal(err)
	}
	old, ok, err := idx.GetView(1)
	if err != nil || !ok || &old.EntryBytes()[0] != &first[0] {
		t.Fatalf("GetView(1) ok=%v err=%v; the view must alias the stored payload", ok, err)
	}
	if got, want := idx.SizeBytes(), int64(perHubOverheadBytes+3*entryBytes); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	if err := idx.PutEncoded(1, rawEntries(4)); err != nil {
		t.Fatal(err)
	}
	if old.Len() != 3 || !old.Contains(9) || old.Contains(4) {
		t.Error("the view taken before the rewrite changed under its holder")
	}
	if cur, _, _ := idx.GetView(1); cur.Len() != 1 || !cur.Contains(4) {
		t.Error("GetView after the rewrite does not serve the new record")
	}
	if got, want := idx.SizeBytes(), int64(perHubOverheadBytes+entryBytes); got != want || idx.Len() != 1 {
		t.Errorf("after the rewrite SizeBytes = %d (want %d), Len = %d (want 1)", got, want, idx.Len())
	}
	if stats := StatsOf(idx); stats.TotalEntries != 1 {
		t.Errorf("StatsOf counts %d entries, want 1", stats.TotalEntries)
	}
}

func TestHubRecordViewContains(t *testing.T) {
	full := NewHubRecordView(7, rawEntries(3, 8, 9, 40), nil)
	for _, c := range []struct {
		name string
		view HubRecordView
		id   graph.NodeID
		want bool
	}{
		{"empty record", NewHubRecordView(7, nil, nil), 3, false},
		{"zero view", HubRecordView{}, 0, false},
		{"first entry", full, 3, true},
		{"last entry", full, 40, true},
		{"middle entry", full, 9, true},
		{"below the first", full, 2, false},
		{"absent between two present", full, 10, false},
		{"above the max", full, 41, false},
		{"single entry hit", NewHubRecordView(7, rawEntries(5), nil), 5, true},
		{"single entry miss", NewHubRecordView(7, rawEntries(5), nil), 6, false},
	} {
		if got := c.view.Contains(c.id); got != c.want {
			t.Errorf("%s: Contains(%d) = %v, want %v", c.name, c.id, got, c.want)
		}
	}
}

func TestDiskIndexRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.ppv")
	w, err := CreateDisk(path)
	if err != nil {
		t.Fatalf("CreateDisk: %v", err)
	}
	want := sampleVectors()
	for h, v := range want {
		if err := w.Put(h, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close should be a no-op, got %v", err)
	}
	if err := w.Put(1, sparse.Vector{1: 1}); err == nil {
		t.Error("Put after Close should fail")
	}

	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer idx.Close()
	if idx.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(want))
	}
	for h, wantVec := range want {
		got, ok, err := idx.Get(h)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = %v, %v, %v", h, got, ok, err)
		}
		if d := got.L1Distance(wantVec); d > 1e-12 {
			t.Errorf("Get(%d) differs from stored vector by %v", h, d)
		}
	}
	if _, ok, _ := idx.Get(12345); ok {
		t.Error("Get on a missing hub should miss")
	}
	if !idx.Has(7) || idx.Has(5) {
		t.Error("Has results wrong")
	}
	if idx.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	if idx.Reads() != int64(len(want)) {
		t.Errorf("Reads = %d, want %d", idx.Reads(), len(want))
	}
	hubs := idx.Hubs()
	if len(hubs) != 3 || hubs[0] != 3 {
		t.Errorf("Hubs = %v", hubs)
	}
}

func TestOpenDiskRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.ppv")
	if _, err := OpenDisk(missing); err == nil {
		t.Error("OpenDisk on a missing file should fail")
	}
	garbage := filepath.Join(dir, "garbage.ppv")
	if err := writeFile(garbage, []byte("this is not an index file at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(garbage); err == nil {
		t.Error("OpenDisk on garbage should fail")
	}
	tiny := filepath.Join(dir, "tiny.ppv")
	if err := writeFile(tiny, []byte("xx")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(tiny); err == nil {
		t.Error("OpenDisk on a too-small file should fail")
	}
}

// buildValidIndex writes a small valid index and returns its path and bytes.
func buildValidIndex(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "valid.ppv")
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestOpenDiskRejectsBitFlippedMagic(t *testing.T) {
	dir := t.TempDir()
	_, data := buildValidIndex(t, dir)
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-16] ^= 0x01 // first magic byte of the footer
	path := filepath.Join(dir, "flipped.ppv")
	if err := writeFile(path, flipped); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenDisk with flipped magic = %v, want ErrBadIndexFormat", err)
	}
}

func TestOpenDiskRejectsShortDirectory(t *testing.T) {
	dir := t.TempDir()
	_, data := buildValidIndex(t, dir)
	// Inflate the footer's hub count so the directory would extend past the
	// footer; OpenDisk must reject it rather than read footer bytes as
	// directory entries.
	corrupt := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(corrupt[len(corrupt)-12:], 1<<20)
	path := filepath.Join(dir, "shortdir.ppv")
	if err := writeFile(path, corrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenDisk with short directory = %v, want ErrBadIndexFormat", err)
	}
}

// TestOpenDiskRejectsOverflowingFooter crafts a footer whose dirStart +
// hubCount*12 wraps past MaxInt64; the bounds check must reject it rather
// than let the wrap slip through into a ~50 GB directory allocation.
func TestOpenDiskRejectsOverflowingFooter(t *testing.T) {
	dir := t.TempDir()
	_, data := buildValidIndex(t, dir)
	corrupt := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(corrupt[len(corrupt)-12:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint64(corrupt[len(corrupt)-8:], 0x7FFFFFFF00000000)
	path := filepath.Join(dir, "overflow.ppv")
	if err := writeFile(path, corrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenDisk with overflowing footer = %v, want ErrBadIndexFormat", err)
	}
}

func TestOpenDiskRejectsDirectoryOffsetOutsideRecords(t *testing.T) {
	// Hand-craft an index whose single directory entry points past the
	// record region.
	var buf []byte
	record := make([]byte, 8) // hub 1, count 0
	binary.LittleEndian.PutUint32(record[0:], 1)
	buf = append(buf, record...)
	dirEntry := make([]byte, 12)
	binary.LittleEndian.PutUint32(dirEntry[0:], 1)
	binary.LittleEndian.PutUint64(dirEntry[4:], 999) // past dirStart=8
	buf = append(buf, dirEntry...)
	footer := make([]byte, 16)
	binary.LittleEndian.PutUint32(footer[0:], diskMagic)
	binary.LittleEndian.PutUint32(footer[4:], 1)
	binary.LittleEndian.PutUint64(footer[8:], 8)
	buf = append(buf, footer...)

	path := filepath.Join(t.TempDir(), "badoffset.ppv")
	if err := writeFile(path, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenDisk with out-of-range offset = %v, want ErrBadIndexFormat", err)
	}
}

// TestDiskIndexGetRejectsTruncatedLastRecord crafts an index whose last
// record claims more entries than the record region holds — the layout a
// partially flushed writer or a torn copy produces. Get must fail with
// ErrBadIndexFormat, not decode zero-filled bytes into a silently wrong PPV
// (the pre-fix behaviour swallowed the short read's io.EOF).
func TestDiskIndexGetRejectsTruncatedLastRecord(t *testing.T) {
	var buf []byte
	record := make([]byte, 8+2*entryBytes) // claims 3 entries, holds 2
	binary.LittleEndian.PutUint32(record[0:], 5)
	binary.LittleEndian.PutUint32(record[4:], 3)
	binary.LittleEndian.PutUint32(record[8:], 10)
	binary.LittleEndian.PutUint64(record[12:], math.Float64bits(0.5))
	binary.LittleEndian.PutUint32(record[8+entryBytes:], 11)
	binary.LittleEndian.PutUint64(record[12+entryBytes:], math.Float64bits(0.25))
	buf = append(buf, record...)
	dirStart := uint64(len(buf))
	dirEntry := make([]byte, 12)
	binary.LittleEndian.PutUint32(dirEntry[0:], 5)
	buf = append(buf, dirEntry...)
	footer := make([]byte, 16)
	binary.LittleEndian.PutUint32(footer[0:], diskMagic)
	binary.LittleEndian.PutUint32(footer[4:], 1)
	binary.LittleEndian.PutUint64(footer[8:], dirStart)
	buf = append(buf, footer...)

	path := filepath.Join(t.TempDir(), "truncated.ppv")
	if err := writeFile(path, buf); err != nil {
		t.Fatal(err)
	}
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v (the directory itself is well-formed)", err)
	}
	defer idx.Close()
	if _, _, err := idx.Get(5); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("Get on a truncated record = %v, want ErrBadIndexFormat", err)
	}
}

// TestDiskIndexGetRejectsHugeCount guards the allocation path: a bit flip in
// a record's count field must not drive a multi-gigabyte allocation.
func TestDiskIndexGetRejectsHugeCount(t *testing.T) {
	dir := t.TempDir()
	path, data := buildValidIndex(t, dir)
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(-1)
	for h, o := range idx.directory {
		if h == 3 {
			off = int64(o)
		}
	}
	idx.Close()
	if off < 0 {
		t.Fatal("hub 3 not in directory")
	}

	corrupt := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(corrupt[off+4:], 0x7fffffff)
	badPath := filepath.Join(dir, "hugecount.ppv")
	if err := writeFile(badPath, corrupt); err != nil {
		t.Fatal(err)
	}
	bad, err := OpenDisk(badPath)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, _, err := bad.Get(3); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("Get with corrupt count = %v, want ErrBadIndexFormat", err)
	}
	// The other hubs' records are intact and still readable.
	if _, ok, err := bad.Get(7); !ok || err != nil {
		t.Fatalf("Get(7) on intact record = %v, %v", ok, err)
	}
}

func TestDiskIndexEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ppv")
	w, err := CreateDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk on an empty index: %v", err)
	}
	defer idx.Close()
	if idx.Len() != 0 {
		t.Errorf("Len = %d, want 0", idx.Len())
	}
	if _, ok, _ := idx.Get(1); ok {
		t.Error("Get on an empty index should miss")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestDiskWriterRejectsDuplicateHub: a duplicate Put would produce a file
// whose directory OpenDisk rejects as corrupt; the writer must catch it at
// write time instead.
func TestDiskWriterRejectsDuplicateHub(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.ppv")
	w, err := CreateDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(4, sparse.Vector{1: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(4, sparse.Vector{2: 0.25}); err == nil {
		t.Fatal("duplicate Put of hub 4 should fail")
	}
	if err := w.Put(5, sparse.Vector{3: 0.125}); err != nil {
		t.Fatalf("Put of a fresh hub after a rejected duplicate: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk after a rejected duplicate: %v", err)
	}
	defer idx.Close()
	if idx.Len() != 2 {
		t.Errorf("Len = %d, want 2", idx.Len())
	}
}

// TestDiskWriterAtomicPublish: the index file must not exist at the final
// path until Close succeeds (records stream into <path>.tmp), so a crash
// mid-precompute can never leave a partial file that OpenDisk rejects.
func TestDiskWriterAtomicPublish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.ppv")
	w, err := CreateDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(1, sparse.Vector{2: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path exists before Close (err=%v); records must stream to .tmp", err)
	}
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("temporary file missing during write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("final path missing after Close: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file still present after Close (err=%v)", err)
	}
	if _, err := OpenDisk(path); err != nil {
		t.Fatalf("OpenDisk after atomic publish: %v", err)
	}
}

// TestDiskWriterAbort discards the temporary file and never publishes.
func TestDiskWriterAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.ppv")
	w, err := CreateDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(1, sparse.Vector{2: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("final path exists after Abort (err=%v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file survives Abort (err=%v)", err)
	}
	if err := w.Abort(); err != nil {
		t.Errorf("second Abort should be a no-op, got %v", err)
	}
}
