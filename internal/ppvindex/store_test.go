package ppvindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// TestStoreGetViewAllocs guards the disk store's read hot path (state load →
// overlay probe → block-cache view): a warm cache hit allocates nothing,
// whether the overlay is empty or holds other hubs' rewrites.
func TestStoreGetViewAllocs(t *testing.T) {
	path := writeIndexFile(t, sampleVectors())
	s, err := OpenStore(path, GraphBinding{Nodes: 12, Edges: 20, Directed: true}, StoreOptions{}, nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer s.Close()

	const hit, rewritten = 3, 7
	read := func() {
		view, ok, err := s.GetView(hit)
		if err != nil || !ok || view.Len() != 3 {
			t.Fatalf("GetView(%d): len=%d ok=%v err=%v", hit, view.Len(), ok, err)
		}
		view.Release()
	}
	read() // warm the block cache
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("warm hit with an empty overlay allocates %v times, want 0", allocs)
	}

	payload := sparse.AppendEncoded(nil, []sparse.Entry{{Node: 7, Score: 0.2}})
	if err := s.PutEncoded(rewritten, payload); err != nil {
		t.Fatalf("PutEncoded: %v", err)
	}
	if ds, _ := s.DurabilityStats(); ds.OverlayHubs != 1 {
		t.Fatalf("overlay holds %d hubs, want 1", ds.OverlayHubs)
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("warm hit past a non-empty overlay allocates %v times, want 0", allocs)
	}
}

// openTestStore opens the index at path as a Store bound to testGraph with
// opts, counting the replayed batches into *batches (when non-nil).
func openTestStore(t *testing.T, path string, opts StoreOptions, batches *int) *Store {
	t.Helper()
	s, err := OpenStore(path, testGraph, opts, func(GraphMutation) error {
		if batches != nil {
			*batches++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// crashCopy copies the index file and the log bytes a crash left behind into
// a fresh directory and returns the copied index path.
func crashCopy(t *testing.T, indexPath string, logBytes []byte) string {
	t.Helper()
	dir := t.TempDir()
	index, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "index.ppv")
	if err := os.WriteFile(path, index, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".log", logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// overlayOf returns the overlay's records keyed by hub.
func overlayOf(s *Store) map[graph.NodeID][]byte {
	st := s.state.Load()
	out := make(map[graph.NodeID][]byte)
	for _, h := range st.src.Hubs() {
		if view, ok, _ := st.overlay.GetView(h); ok {
			out[h] = bytes.Clone(view.EntryBytes())
			view.Release()
		}
	}
	return out
}

// bigPayload is an entry payload of n ascending entries.
func bigPayload(n int) []byte {
	entries := make([]sparse.Entry, n)
	for i := range entries {
		entries[i] = sparse.Entry{Node: graph.NodeID(i), Score: 1 / float64(i+2)}
	}
	return sparse.AppendEncoded(nil, entries)
}

// TestStoreUncommittedBatchNeverReplays stages a batch larger than the frame
// buffer (64 KiB) and never commits it, then opens the log bytes as a kill -9
// would leave them: nothing of the batch may replay, neither its records nor
// an epoch.
func TestStoreUncommittedBatchNeverReplays(t *testing.T) {
	path := writeIndexFile(t, sampleVectors())
	s := openTestStore(t, path, StoreOptions{}, nil)
	defer s.Close()
	payload := bigPayload(1000) // 12 KB a record
	for i := 0; i < 10; i++ {
		if err := s.PutEncoded([]graph.NodeID{3, 7, 11}[i%3], payload); err != nil {
			t.Fatal(err)
		}
	}
	crashed, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}

	batches := 0
	s2 := openTestStore(t, crashCopy(t, path, crashed), StoreOptions{}, &batches)
	defer s2.Close()
	ds, _ := s2.DurabilityStats()
	if batches != 0 || ds.OverlayHubs != 0 || ds.LogRecords != 0 {
		t.Fatalf("a never-committed batch replayed: %d batches, %+v", batches, ds)
	}
}

// TestStoreTornSecondBatchLandsOnFirst commits two batches and cuts the log at
// every byte offset inside the second frame: each reopen must land on exactly
// the first batch — its mutation and its records, nothing of the second.
func TestStoreTornSecondBatchLandsOnFirst(t *testing.T) {
	path := writeIndexFile(t, sampleVectors())
	s := openTestStore(t, path, StoreOptions{}, nil)
	first := sparse.AppendEncoded(nil, []sparse.Entry{{Node: 2, Score: 0.5}})
	if err := s.PutEncoded(3, first); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitUpdates(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	ds1, _ := s.DurabilityStats()
	for _, h := range []graph.NodeID{7, 11} {
		if err := s.PutEncoded(h, sparse.AppendEncoded(nil, []sparse.Entry{{Node: 4, Score: 0.25}, {Node: 5, Score: 0.125}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CommitUpdates(GraphMutation{AddedEdges: []graph.Edge{{From: 2, To: 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}

	want := map[graph.NodeID][]byte{3: first}
	for cut := ds1.LogBytes; cut < int64(len(full)); cut++ {
		batches := 0
		s2 := openTestStore(t, crashCopy(t, path, full[:cut]), StoreOptions{}, &batches)
		if got := overlayOf(s2); batches != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("log cut at %d of %d: %d batches replayed, overlay %v; want batch 1 alone", cut, len(full), batches, got)
		}
		s2.Close()
	}
}

// TestStoreRejectsVersion1Log: the log of the previous layout (version 1, one
// hub record per frame, bound to the base file alone) is not migrated. Opening
// a store beside one fails with ErrBadIndexFormat and leaves the log as it is.
func TestStoreRejectsVersion1Log(t *testing.T) {
	path := writeIndexFile(t, sampleVectors())
	base, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, 24)
	binary.LittleEndian.PutUint32(v1[0:], logMagic)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	binary.LittleEndian.PutUint64(v1[8:], uint64(base.SizeBytes()))
	binary.LittleEndian.PutUint32(v1[16:], uint32(base.Len()))
	base.Close()
	rec := encodeRecord(3, sparse.Vector{2: 0.5})
	frameHead := make([]byte, frame.Overhead)
	binary.LittleEndian.PutUint32(frameHead[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frameHead[4:], crc32.ChecksumIEEE(rec))
	for name, data := range map[string][]byte{
		"bare header":     v1,
		"with one record": append(append(bytes.Clone(v1), frameHead...), rec...),
	} {
		if err := os.WriteFile(path+".log", data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(path, testGraph, StoreOptions{}, nil); !errors.Is(err, ErrBadIndexFormat) {
			t.Errorf("%s: OpenStore beside a version-1 log = %v, want ErrBadIndexFormat", name, err)
		}
		if kept, err := os.ReadFile(path + ".log"); err != nil || !bytes.Equal(kept, data) {
			t.Errorf("%s: the version-1 log was modified (err=%v)", name, err)
		}
	}
}

// TestStoreCompactThresholdCountsRecords: the automatic compaction trigger
// counts the hub records in the log, which compaction folds away, not the
// file, whose mutations it keeps. A log whose mutations alone pass the
// threshold must not ask for a compaction at every commit.
func TestStoreCompactThresholdCountsRecords(t *testing.T) {
	path := writeIndexFile(t, sampleVectors())
	const threshold = 4 << 10
	s := openTestStore(t, path, StoreOptions{CompactThresholdBytes: threshold}, nil)
	defer s.Close()
	edges := make([]graph.Edge, 1000) // an 8 KB mutation, twice the threshold
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	small := sparse.AppendEncoded(nil, []sparse.Entry{{Node: 1, Score: 0.5}})
	for i := 0; i < 3; i++ {
		if err := s.PutEncoded(3, small); err != nil {
			t.Fatal(err)
		}
		compact, err := s.commit(GraphMutation{AddedEdges: edges})
		if err != nil {
			t.Fatal(err)
		}
		if compact {
			t.Fatalf("commit %d asked for a compaction with %d bytes of records in a %d-byte log", i, s.log.recordBytes, s.log.SizeBytes())
		}
	}
	if err := s.PutEncoded(7, bigPayload(threshold/entryBytes)); err != nil {
		t.Fatal(err)
	}
	if compact, err := s.commit(GraphMutation{}); err != nil || !compact {
		t.Fatalf("records past the threshold did not ask for a compaction (err=%v)", err)
	}
}
