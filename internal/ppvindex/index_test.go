package ppvindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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

// storedVector is v as a record gives it back: every score rounded toward
// zero to its 16-bit code (sparse.StoredScore).
func storedVector(v sparse.Vector) sparse.Vector {
	out := sparse.New(len(v))
	for id, s := range v {
		out[id] = sparse.StoredScore(s)
	}
	return out
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
	stats, err := StatsOf(idx)
	if err != nil || stats.Hubs != 3 || stats.TotalEntries != 6 {
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

// TestMemIndexViewsSurviveReplacement: a stored record is replaced, never
// written, so a view taken before the hub is rewritten keeps reading the old
// record, and SizeBytes follows the replacement. (The first read publishes
// the records put so far as the base heap image; the rewrite, past an eighth
// of that small image, folds into a fresh one.)
func TestMemIndexViewsSurviveReplacement(t *testing.T) {
	idx := NewMemIndex()
	first := rawEntries(2, 5, 9)
	if err := idx.PutEncoded(1, first); err != nil {
		t.Fatal(err)
	}
	old, ok, err := idx.GetView(1)
	if err != nil || !ok || &old.EntryBytes()[0] != &idx.Image()[perHubOverheadBytes] {
		t.Fatalf("GetView(1) ok=%v err=%v; the view must alias the stored record", ok, err)
	}
	if got, want := idx.SizeBytes(), int64(perHubOverheadBytes+len(first)); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	if err := idx.PutEncoded(1, rawEntries(4)); err != nil {
		t.Fatal(err)
	}
	if old.Len() != 3 || !has(old, 9) || has(old, 4) {
		t.Error("the view taken before the rewrite changed under its holder")
	}
	if cur, _, _ := idx.GetView(1); cur.Len() != 1 || !has(cur, 4) {
		t.Error("GetView after the rewrite does not serve the new record")
	}
	if got, want := idx.SizeBytes(), int64(perHubOverheadBytes+len(rawEntries(4))); got != want || idx.Len() != 1 {
		t.Errorf("after the rewrite SizeBytes = %d (want %d), Len = %d (want 1)", got, want, idx.Len())
	}
	if stats, err := StatsOf(idx); err != nil || stats.TotalEntries != 1 {
		t.Errorf("StatsOf counts %d entries, want 1", stats.TotalEntries)
	}
}

// TestMemIndexPackedViewsSurviveRepack: the first read lays the records put
// so far out in hub order, although the puts came in descending order, in one
// exact-size heap image behind its directory, and a rewrite goes to the
// overlay. A view of the image's record survives the rewrite, and views of
// both survive the compaction that a put past an eighth of the image's bytes
// triggers. Hubs, Len and SizeBytes cover both halves throughout, and Hubs is
// ascending.
func TestMemIndexPackedViewsSurviveRepack(t *testing.T) {
	idx := NewMemIndex()
	// Put in descending order so the put order and the id order differ.
	for h := graph.NodeID(40); h > 0; h-- {
		if err := idx.PutEncoded(h, rawEntries(h, h+1, h+2)); err != nil {
			t.Fatal(err)
		}
	}
	size := idx.SizeBytes()
	pack(idx)
	st := memState(idx)
	// Every record is three entries with one-byte gaps: 9 payload bytes.
	const imageBytes = 40*(perHubOverheadBytes+9) + 40*dirEntryBytes + footerBytes
	if image := idx.Image(); len(st.overlay) != 0 || st.reader.Len() != 40 || len(image) != imageBytes || cap(image) != len(image) {
		t.Fatalf("after Pack: %d overlay records, %d base hubs, an image of %d bytes (cap %d); want 0, 40 and an exact %d",
			len(st.overlay), st.reader.Len(), len(image), cap(image), imageBytes)
	}
	if idx.SizeBytes() != size || idx.Len() != 40 {
		t.Fatalf("Pack moved SizeBytes %d -> %d or Len to %d", size, idx.SizeBytes(), idx.Len())
	}
	packed, ok, err := idx.GetView(7)
	off, _ := st.reader.find(7)
	if err != nil || !ok || &packed.EntryBytes()[0] != &idx.Image()[off+perHubOverheadBytes] {
		t.Fatalf("GetView(7) ok=%v err=%v; the view must alias the image", ok, err)
	}

	// A rewrite and a new hub go to the overlay: the image is 1 176 bytes,
	// so up to 147 bytes of committed records stay in the overlay.
	if err := idx.PutEncoded(7, rawEntries(100)); err != nil {
		t.Fatal(err)
	}
	if err := idx.PutEncoded(50, rawEntries(1, 2)); err != nil {
		t.Fatal(err)
	}
	if st := memState(idx); len(st.overlay) != 2 || st.reader.Len() != 40 {
		t.Fatalf("the overlay holds %d records and the base %d hubs, want 2 and 40", len(st.overlay), st.reader.Len())
	}
	if packed.Len() != 3 || !has(packed, 9) || has(packed, 100) {
		t.Error("the view of the packed record changed under its holder after a rewrite")
	}
	rewritten, _, _ := idx.GetView(7)
	if rewritten.Len() != 1 || !has(rewritten, 100) {
		t.Fatal("GetView after the rewrite does not serve the overlay's record")
	}
	wantSize := size - int64(len(rawEntries(7, 8, 9))) + int64(len(rawEntries(100))) + perHubOverheadBytes + int64(len(rawEntries(1, 2)))
	if idx.Len() != 41 || idx.SizeBytes() != wantSize {
		t.Errorf("with an overlay: Len = %d, SizeBytes = %d; want 41 and %d", idx.Len(), idx.SizeBytes(), wantSize)
	}
	hubs := idx.Hubs()
	if len(hubs) != 41 || !slices.IsSorted(hubs) || hubs[40] != 50 {
		t.Errorf("Hubs = %v, want 1..40 and 50 in ascending order", hubs)
	}

	// Past an eighth of the image the put compacts: a fresh image, an empty
	// overlay, and the old views read what they read before.
	big := make([]graph.NodeID, 45)
	for i := range big {
		big[i] = graph.NodeID(i + 1)
	}
	if err := idx.PutEncoded(60, rawEntries(big...)); err != nil {
		t.Fatal(err)
	}
	if st := memState(idx); len(st.overlay) != 0 || st.reader.Len() != 42 {
		t.Fatalf("after the compaction the overlay holds %d records and the base %d hubs, want 0 and 42", len(st.overlay), st.reader.Len())
	}
	if packed.Len() != 3 || !has(packed, 9) || rewritten.Len() != 1 || !has(rewritten, 100) {
		t.Error("a view taken before the compaction changed under its holder")
	}
	for h, want := range map[graph.NodeID]int{7: 1, 50: 2, 60: 45, 8: 3} {
		if v, ok, _ := idx.GetView(h); !ok || v.Len() != want {
			t.Errorf("after the compaction GetView(%d) has %d entries (ok=%v), want %d", h, v.Len(), ok, want)
		}
	}
	if hubs := idx.Hubs(); len(hubs) != 42 || !slices.IsSorted(hubs) || idx.Len() != 42 {
		t.Errorf("after the compaction Hubs = %v (Len %d), want 42 ascending", hubs, idx.Len())
	}
	if idx.Has(61) || !idx.Has(60) || !idx.Has(1) {
		t.Error("Has is wrong after the compaction")
	}
}

// TestMemIndexConcurrentRepack reads a packed index from several goroutines
// while one rewrites its hubs, repacking every few puts: every view read
// belongs to the hub asked for and stays intact after later repacks, and
// Hubs and Len never see a hub missing or doubled.
func TestMemIndexConcurrentRepack(t *testing.T) {
	const hubs, puts, readers = 64, 2000, 4
	idx := NewMemIndex()
	for h := graph.NodeID(0); h < hubs; h++ {
		if err := idx.PutEncoded(h, rawEntries(h)); err != nil {
			t.Fatal(err)
		}
	}
	pack(idx)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			var held []HubRecordView
			for i := 0; ; i++ {
				select {
				case <-stop:
					for _, v := range held {
						if first := firstNode(v); v.Len() != 2 || !has(v, first+hubs) {
							t.Errorf("a view held across repacks changed: %d entries", v.Len())
						}
					}
					return
				default:
				}
				h := graph.NodeID(i % hubs)
				v, ok, err := idx.GetView(h)
				if err != nil || !ok {
					t.Errorf("GetView(%d): ok=%v err=%v", h, ok, err)
					return
				}
				if first := firstNode(v); first != h {
					t.Errorf("GetView(%d) served a record starting at node %d", h, first)
					return
				}
				if v.Len() == 2 && len(held) < 64 {
					held = append(held, v)
				}
				if got := idx.Hubs(); len(got) != hubs || !slices.IsSorted(got) || idx.Len() != hubs {
					t.Errorf("Hubs has %d entries (sorted %v), Len %d; want %d", len(got), slices.IsSorted(got), idx.Len(), hubs)
					return
				}
			}
		}()
	}
	for i := 0; i < puts; i++ {
		h := graph.NodeID(i % hubs)
		if err := idx.PutEncoded(h, rawEntries(h, h+hubs)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// has reports whether the record of v holds an entry for id.
func has(v HubRecordView, id graph.NodeID) bool { return v.ContainsAny([]graph.NodeID{id}) }

// firstNode is the node of v's first entry, -1 for an empty record.
func firstNode(v HubRecordView) graph.NodeID {
	r := sparse.NewEncodedReader(v.EntryBytes())
	if id, _, ok := r.Next(); ok {
		return id
	}
	return -1
}

func TestHubRecordViewContainsAny(t *testing.T) {
	full := NewHubRecordView(rawEntries(3, 8, 9, 40, 1000))
	for _, c := range []struct {
		name string
		view HubRecordView
		ids  []graph.NodeID
		want bool
	}{
		{"empty record", NewHubRecordView(nil), []graph.NodeID{3}, false},
		{"zero view", HubRecordView{}, []graph.NodeID{0}, false},
		{"no ids", full, nil, false},
		{"first entry", full, []graph.NodeID{3}, true},
		{"last entry, a two-byte gap", full, []graph.NodeID{1000}, true},
		{"middle entry", full, []graph.NodeID{9}, true},
		{"below the first", full, []graph.NodeID{2}, false},
		{"absent between two present", full, []graph.NodeID{10}, false},
		{"above the max", full, []graph.NodeID{1001}, false},
		{"all absent, interleaved", full, []graph.NodeID{0, 4, 10, 41, 999, 5000}, false},
		{"one present among absent ones", full, []graph.NodeID{0, 4, 10, 40, 5000}, true},
		{"present after ids past several entries", full, []graph.NodeID{1, 39, 1000}, true},
		{"single entry hit", NewHubRecordView(rawEntries(5)), []graph.NodeID{1, 5}, true},
		{"single entry miss", NewHubRecordView(rawEntries(5)), []graph.NodeID{6}, false},
	} {
		if got := c.view.ContainsAny(c.ids); got != c.want {
			t.Errorf("%s: ContainsAny(%v) = %v, want %v", c.name, c.ids, got, c.want)
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
		if d := got.L1Distance(storedVector(wantVec)); d != 0 {
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

// refusesOldLayout writes a valid index under the magic of an older layout
// and checks that opening it, as a DiskIndex and as a Store, fails with
// ErrBadIndexFormat naming the layout, and leaves the file byte for byte as
// it was.
func refusesOldLayout(t *testing.T, layout string) {
	dir := t.TempDir()
	_, data := buildValidIndex(t, dir)
	old := append([]byte(nil), data...)
	copy(old[len(old)-16:], layout)
	path := filepath.Join(dir, "old.ppv")
	if err := writeFile(path, old); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDisk(path)
	if !errors.Is(err, ErrBadIndexFormat) || !strings.Contains(err.Error(), layout) {
		t.Fatalf("OpenDisk on an %s file = %v, want ErrBadIndexFormat naming %s", layout, err, layout)
	}
	if _, err := OpenStore(path, testGraph, StoreOptions{}, nil); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenStore on an %s file = %v, want ErrBadIndexFormat", layout, err)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, old) {
		t.Fatalf("the refused %s file was modified (err=%v)", layout, err)
	}
}

// TestOpenDiskRejectsFPI1: a file of the FPI1 layout (12-byte entries with
// float64 scores) is refused, not migrated, with an error that names it.
func TestOpenDiskRejectsFPI1(t *testing.T) { refusesOldLayout(t, "FPI1") }

// TestOpenDiskRejectsFPI2: a file of the FPI2 layout (fixed 8-byte entries
// behind an entry count) is refused the same way.
func TestOpenDiskRejectsFPI2(t *testing.T) { refusesOldLayout(t, "FPI2") }

// TestOpenDiskRejectsFPI3: nor is a file of the previous layout (FPI3,
// uvarint node-id gaps beside float32 scores) migrated: it is refused the
// same way and left byte for byte as it was.
func TestOpenDiskRejectsFPI3(t *testing.T) { refusesOldLayout(t, "FPI3") }

// TestOpenDiskRejectsUnsortedDirectory: Close writes the directory in hub
// order whatever order the records came in, and an FPI4 directory out of hub
// order is refused as corrupt.
func TestOpenDiskRejectsUnsortedDirectory(t *testing.T) {
	dir := t.TempDir()
	path, data := buildValidIndex(t, dir)
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()
	dirStart := int(binary.LittleEndian.Uint64(data[len(data)-8:]))
	entries := data[dirStart : len(data)-footerBytes]
	for i := 1; i*dirEntryBytes < len(entries); i++ {
		if prev, h := binary.LittleEndian.Uint32(entries[(i-1)*dirEntryBytes:]), binary.LittleEndian.Uint32(entries[i*dirEntryBytes:]); h <= prev {
			t.Fatalf("directory entry %d (hub %d) is not above hub %d", i, h, prev)
		}
	}
	swapped := append([]byte(nil), data...)
	first := swapped[dirStart : dirStart+dirEntryBytes]
	second := swapped[dirStart+dirEntryBytes : dirStart+2*dirEntryBytes]
	tmp := bytes.Clone(first)
	copy(first, second)
	copy(second, tmp)
	badPath := filepath.Join(dir, "unsorted.ppv")
	if err := writeFile(badPath, swapped); err != nil {
		t.Fatal(err)
	}
	openFails(t, badPath)
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
// record claims more payload bytes than the record region holds — the layout
// a partially flushed writer or a torn copy produces. The open checks every
// record, so it fails with ErrBadIndexFormat. A file cut short under an open
// index is outside the index's contract (the store never truncates a
// published file; see the disk layout comment), so only the open is tested.
func TestDiskIndexGetRejectsTruncatedLastRecord(t *testing.T) {
	payload := rawEntries(10, 11)
	record := appendRecord(nil, 5, payload)
	binary.LittleEndian.PutUint32(record[4:], uint32(len(payload)+5)) // claims a third entry
	buf := record
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
	openFails(t, path)
}

// TestDiskIndexGetRejectsHugeCount guards the allocation path: a bit flip in
// a record's length field must not drive a multi-gigabyte allocation. The open
// refuses the file; a flip that lands under an open index fails that hub's
// Get, and the other hubs' records stay readable. The write under the open
// index reaches only a mapping, so that half holds for the mapping only.
func TestDiskIndexGetRejectsHugeCount(t *testing.T) {
	dir := t.TempDir()
	path, data := buildValidIndex(t, dir)
	off := recordOffset(t, path, 3)

	corrupt := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(corrupt[off+4:], 0x7fffffff)
	badPath := filepath.Join(dir, "hugecount.ppv")
	if err := writeFile(badPath, corrupt); err != nil {
		t.Fatal(err)
	}
	openFails(t, badPath)

	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if !idx.MmapActive() {
		t.Skip("the index holds a heap copy of the file here, which a write under it does not reach")
	}
	writeAt(t, path, off+4, binary.LittleEndian.AppendUint32(nil, 0x7fffffff))
	if _, _, err := idx.Get(3); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("Get with corrupt count = %v, want ErrBadIndexFormat", err)
	}
	if _, ok, err := idx.Get(7); !ok || err != nil {
		t.Fatalf("Get(7) on intact record = %v, %v", ok, err)
	}
}

// TestOpenDiskRejectsUnsoundRecords: the open checks every record's payload
// by the rules of the update-log gate, so a copy of a valid index with one
// score's code flipped above 1.0's, or an index written with two node ids out
// of order (the second gap wraps past int32), fails to open with
// ErrBadIndexFormat instead of serving a record that breaks the bound's
// lower-bound argument.
func TestOpenDiskRejectsUnsoundRecords(t *testing.T) {
	dir := t.TempDir()
	path, data := buildValidIndex(t, dir)
	// Hub 3 is {1: 0.5, 2: 0.25, 3: 0.15}: three 3-byte entries, each a
	// one-byte gap and a little-endian score code.
	payload := recordOffset(t, path, 3) + perHubOverheadBytes
	if code := binary.LittleEndian.Uint16(data[payload+1:]); code != 30<<11 {
		t.Fatalf("the first score's code is %#x, want 0.5's %#x", code, 30<<11)
	}
	flipped := append([]byte(nil), data...)
	flipped[payload+2] ^= 0x0c // 0.5's code 0xf000 becomes 0xfc00, above 1.0's 0xf800
	largest := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(largest[payload+3+1:], 0xffff)
	w, err := CreateDisk(filepath.Join(dir, "unsorted.ppv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutEncoded(3, rawEntries(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	unsorted, err := os.ReadFile(filepath.Join(dir, "unsorted.ppv"))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{"code flipped above 1.0": flipped, "largest code": largest, "ids out of order": unsorted} {
		badPath := filepath.Join(dir, "unsound.ppv")
		if err := writeFile(badPath, bad); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { openFails(t, badPath) })
	}
}

// recordOffset is the file offset of hub h's record in the index at path.
func recordOffset(t *testing.T, path string, h graph.NodeID) int64 {
	t.Helper()
	idx, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	off, ok := idx.find(h)
	if !ok {
		t.Fatalf("hub %d is not in the directory of %s", h, path)
	}
	return int64(off)
}

// writeAt overwrites the file at path with b at off, in place.
func writeAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// openFails checks that the index at path fails to open with
// ErrBadIndexFormat.
func openFails(t *testing.T, path string) {
	t.Helper()
	idx, err := OpenDisk(path)
	if err == nil {
		idx.Close()
	}
	if !errors.Is(err, ErrBadIndexFormat) {
		t.Errorf("open = %v, want ErrBadIndexFormat", err)
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
