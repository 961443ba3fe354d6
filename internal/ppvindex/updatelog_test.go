package ppvindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// testGraph and testBind are the graph and the made-up base file the log
// tests bind their logs to.
var (
	testGraph = GraphBinding{Nodes: 100, Edges: 400, Directed: true}
	testBind  = logBinding(1000, 30, testGraph)
)

// replayedBatch is one batch as openUpdateLog replays it.
type replayedBatch struct {
	m    GraphMutation
	hubs []graph.NodeID
}

// openCollecting opens the log at path bound to bind, appending every
// replayed batch to dst.
func openCollecting(path string, bind []byte, dst *[]replayedBatch) (*UpdateLog, error) {
	return openUpdateLog(path, bind, func(m GraphMutation) error {
		*dst = append(*dst, replayedBatch{m: m})
		return nil
	}, func(h graph.NodeID, _ []byte) error {
		last := &(*dst)[len(*dst)-1]
		last.hubs = append(last.hubs, h)
		return nil
	})
}

// recordBatch is the frame payload of a batch with no graph mutation holding
// the given raw records, valid or not.
func recordBatch(records ...[]byte) []byte {
	out := appendMutation(nil, GraphMutation{})
	for _, rec := range records {
		out = append(out, rec...)
	}
	return out
}

// collectReplay returns a replay callback appending into dst.
func collectReplay(dst *[]struct {
	hub graph.NodeID
	ppv sparse.Vector
}) func(graph.NodeID, []byte) error {
	return func(h graph.NodeID, payload []byte) error {
		// Vector copies the entries out of the replay buffer.
		*dst = append(*dst, struct {
			hub graph.NodeID
			ppv sparse.Vector
		}{h, NewHubRecordView(payload).Vector()})
		return nil
	}
}

func TestUpdateLogAppendCommitReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := OpenUpdateLog(path, 1000, 30, nil)
	if err != nil {
		t.Fatalf("OpenUpdateLog: %v", err)
	}
	v1 := sparse.Vector{1: 0.5, 9: 0.25}
	v2 := sparse.Vector{2: 0.125}
	if err := l.Append(7, v1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(3, v2); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Errorf("Records = %d, want 2", l.Records())
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var replayed []struct {
		hub graph.NodeID
		ppv sparse.Vector
	}
	l2, err := OpenUpdateLog(path, 1000, 30, collectReplay(&replayed))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records, want 2", len(replayed))
	}
	if replayed[0].hub != 7 || replayed[1].hub != 3 {
		t.Errorf("replay order = %d,%d, want 7,3", replayed[0].hub, replayed[1].hub)
	}
	if got := replayed[0].ppv[9]; got != 0.25 {
		t.Errorf("replayed score of node 9 = %v, want 0.25", got)
	}
	if l2.Records() != 2 || l2.SizeBytes() <= logHeaderBytes {
		t.Errorf("reopened log: %d records, %d bytes", l2.Records(), l2.SizeBytes())
	}
}

// TestUpdateLogTruncatesTornTail simulates a crash mid-append: a partial
// frame at the end of the log must be dropped on open, keeping every complete
// frame before it.
func TestUpdateLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := OpenUpdateLog(path, 1000, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, sparse.Vector{4: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	goodSize := l.SizeBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn append: a frame header promising more payload than the file holds.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 8+5) // header + 5 of the promised 20 payload bytes
	binary.LittleEndian.PutUint32(torn[0:], 20)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var replayed []struct {
		hub graph.NodeID
		ppv sparse.Vector
	}
	l2, err := OpenUpdateLog(path, 1000, 30, collectReplay(&replayed))
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 1 || replayed[0].hub != 1 {
		t.Fatalf("replayed %v, want just hub 1", replayed)
	}
	if l2.SizeBytes() != goodSize {
		t.Errorf("log size after truncation = %d, want %d", l2.SizeBytes(), goodSize)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != goodSize {
		t.Errorf("file size = %d (%v), want %d", st.Size(), err, goodSize)
	}
}

// TestUpdateLogStopsAtCorruptFrame flips a payload bit mid-log: the CRC
// mismatch must stop replay at the corrupt frame, keeping earlier frames.
func TestUpdateLogStopsAtCorruptFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := OpenUpdateLog(path, 1000, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, sparse.Vector{4: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	firstEnd := l.SizeBytes()
	if err := l.Append(2, sparse.Vector{5: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the second frame's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstEnd+frame.Overhead+3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var replayed []struct {
		hub graph.NodeID
		ppv sparse.Vector
	}
	l2, err := OpenUpdateLog(path, 1000, 30, collectReplay(&replayed))
	if err != nil {
		t.Fatalf("reopen with corrupt frame: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 1 || replayed[0].hub != 1 {
		t.Fatalf("replayed %d records (first hub %v), want just the pre-corruption frame",
			len(replayed), replayed)
	}
	if l2.SizeBytes() != firstEnd {
		t.Errorf("log truncated to %d, want %d", l2.SizeBytes(), firstEnd)
	}
}

// TestUpdateLogReplayStopsAtUnsortedRecord: a frame that passes its CRC but
// does not hold a batch of records — node ids out of order or repeated (a gap
// wrapped past int32), a length that does not cover the record, a score code
// above 1.0's, or a bad record behind a good one in the same
// batch — is a bad frame. Replay stops there, keeps what came before
// and truncates the rest, as it does for a checksum mismatch; no record of the
// bad batch replays.
func TestUpdateLogReplayStopsAtUnsortedRecord(t *testing.T) {
	good := encodeRecord(1, sparse.Vector{4: 0.5, 6: 0.25})
	for name, bad := range map[string][]byte{
		"descending ids":                    recordBatch(appendRecord(nil, 2, rawEntries(9, 5))),
		"repeated id":                       recordBatch(appendRecord(nil, 2, rawEntries(5, 5))),
		"short count":                       recordBatch(append(appendRecord(nil, 2, rawEntries(5, 9)), rawEntries(11)...)),
		"long count":                        recordBatch(appendRecord(nil, 2, rawEntries(5, 9))[:perHubOverheadBytes+5]),
		"bad behind good one":               recordBatch(encodeRecord(3, sparse.Vector{1: 0.5}), appendRecord(nil, 2, rawEntries(9, 5))),
		"score above 1":                     recordBatch(appendRecord(nil, 2, []byte{5, 0x01, 0xf8})),
		"largest score code":                recordBatch(appendRecord(nil, 2, []byte{5, 0xff, 0xff})),
		"score above 1 behind a good entry": recordBatch(appendRecord(nil, 2, append(rawEntries(5), 3, 0x01, 0xf8))),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "idx.log")
			if err := os.WriteFile(path, updateLogBytes(t, recordBatch(good), bad, recordBatch(good)), 0o644); err != nil {
				t.Fatal(err)
			}
			var replayed []struct {
				hub graph.NodeID
				ppv sparse.Vector
			}
			l, err := openUpdateLog(path, fuzzBind, nil, collectReplay(&replayed))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer l.Close()
			if len(replayed) != 1 || replayed[0].hub != 1 || replayed[0].ppv[6] != 0.25 {
				t.Fatalf("replayed %v, want just the frame before the bad one", replayed)
			}
			if want := int64(logHeaderBytes + frame.Overhead + len(recordBatch(good))); l.Records() != 1 || l.SizeBytes() != want {
				t.Errorf("log holds %d records in %d bytes, want 1 in %d", l.Records(), l.SizeBytes(), want)
			}
		})
	}
}

// TestUpdateLogCloseDiscardsUncommitted: records staged by a batch whose
// commit never ran (the update failed) must not survive Close — replaying
// them would restore half a batch for a graph change that never happened.
func TestUpdateLogCloseDiscardsUncommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := OpenUpdateLog(path, 1000, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, sparse.Vector{4: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	committedSize := l.SizeBytes()
	if err := l.Append(2, sparse.Vector{5: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != committedSize {
		t.Errorf("file size after close = %d (%v), want the committed %d", st.Size(), err, committedSize)
	}
	var replayed []struct {
		hub graph.NodeID
		ppv sparse.Vector
	}
	l2, err := OpenUpdateLog(path, 1000, 30, collectReplay(&replayed))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != 1 || replayed[0].hub != 1 {
		t.Fatalf("replayed %v, want only the committed frame", replayed)
	}
}

func TestUpdateLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	if err := os.WriteFile(path, []byte("definitely not an update log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenUpdateLog(path, 1000, 30, nil); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenUpdateLog on a foreign file = %v, want ErrBadIndexFormat", err)
	}
}

// TestUpdateLogReset: rewriteLog, the compaction step that re-binds the log
// to the new base, drops every record and keeps each batch's mutation;
// appends keep working after it, and only their records replay.
func TestUpdateLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := openUpdateLog(path, testBind, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m1 := GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}
	l.AppendEncoded(1, encodeVector(sparse.Vector{4: 0.5}))
	if err := l.CommitBatch(m1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rebound := logBinding(1001, 30, testGraph)
	if err := rewriteLog(path, rebound); err != nil {
		t.Fatalf("rewriteLog: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("the rewrite left its temporary file behind (err=%v)", err)
	}
	var replayed []replayedBatch
	l2, err := openCollecting(path, rebound, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || !reflect.DeepEqual(replayed[0].m, m1) || len(replayed[0].hubs) != 0 {
		t.Fatalf("rewritten log replayed %+v, want the mutation of the one batch and no record", replayed)
	}
	if want := int64(logHeaderBytes + frame.Overhead + len(appendMutation(nil, m1))); l2.SizeBytes() != want || l2.Records() != 0 || l2.Batches() != 1 {
		t.Errorf("after the rewrite: %d bytes, %d records, %d batches; want %d, 0, 1", l2.SizeBytes(), l2.Records(), l2.Batches(), want)
	}
	l2.AppendEncoded(2, encodeVector(sparse.Vector{6: 0.75}))
	if err := l2.CommitBatch(GraphMutation{}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	replayed = nil
	l3, err := openCollecting(path, rebound, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(replayed) != 2 || len(replayed[0].hubs) != 0 || !reflect.DeepEqual(replayed[1].hubs, []graph.NodeID{2}) {
		t.Fatalf("replayed %+v, want the rewritten batch, then the post-rewrite record of hub 2", replayed)
	}
}

// TestUpdateLogTornHeader covers a crash before the header itself was fully
// written: the open must recover by rewriting a fresh header.
func TestUpdateLogTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	if err := os.WriteFile(path, []byte{0x46, 0x50}, 0o644); err != nil { // 2 of 24 header bytes
		t.Fatal(err)
	}
	l, err := OpenUpdateLog(path, 1000, 30, func(graph.NodeID, []byte) error {
		t.Fatal("nothing should replay from a torn header")
		return nil
	})
	if err != nil {
		t.Fatalf("OpenUpdateLog on a torn header: %v", err)
	}
	defer l.Close()
	if l.SizeBytes() != logHeaderBytes || l.Records() != 0 {
		t.Errorf("recovered log: %d bytes, %d records", l.SizeBytes(), l.Records())
	}
}

// TestUpdateLogDiscardsMismatchedBinding: the records of a log bound to a
// different base file (leftover of a compaction that renamed the new base but
// died before rewriting the log) must be skipped on open, not replayed onto a
// base they do not describe. The batches themselves stay: on the same graph
// their mutations are not held anywhere else.
func TestUpdateLogDiscardsMismatchedBinding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := OpenUpdateLog(path, 1000, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, sparse.Vector{4: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Same size, different hub count — and a different size — both mismatch.
	for i, bind := range []struct {
		bytes int64
		hubs  int
	}{{1000, 31}, {2000, 30}} {
		l2, err := OpenUpdateLog(path, bind.bytes, bind.hubs, func(graph.NodeID, []byte) error {
			t.Fatalf("record replayed despite binding mismatch %+v", bind)
			return nil
		})
		if err != nil {
			t.Fatalf("OpenUpdateLog with mismatched binding: %v", err)
		}
		if l2.Records() != 0 || l2.Batches() != int64(i+1) {
			t.Errorf("mismatched log kept %d records in %d batches, want none in %d", l2.Records(), l2.Batches(), i+1)
		}
		// The rewrite re-bound the log to the new base; the record appended
		// now mismatches again in the next iteration, on purpose.
		if err := l2.Append(9, sparse.Vector{1: 0.25}); err != nil {
			t.Fatal(err)
		}
		if err := l2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Matching binding replays the record appended after the last re-bind.
	var replayed []struct {
		hub graph.NodeID
		ppv sparse.Vector
	}
	l3, err := OpenUpdateLog(path, 2000, 30, collectReplay(&replayed))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(replayed) != 1 || replayed[0].hub != 9 {
		t.Fatalf("replayed %v, want the re-bound record of hub 9", replayed)
	}
}

// The tests below cover the graph-mutation half of each batch frame, which a
// separate log of mutations once held; their names date from then.

func TestGraphLogAppendCommitReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := openUpdateLog(path, testBind, nil, nil)
	if err != nil {
		t.Fatalf("openUpdateLog: %v", err)
	}
	m1 := GraphMutation{
		AddedEdges:   []graph.Edge{{From: 1, To: 2}, {From: 3, To: 4}},
		RemovedEdges: []graph.Edge{{From: 5, To: 6}},
	}
	m2 := GraphMutation{AddedEdges: []graph.Edge{{From: 7, To: 8}}, NumNodes: 120}
	l.AppendEncoded(7, encodeVector(sparse.Vector{1: 0.5}))
	l.AppendEncoded(3, encodeVector(sparse.Vector{2: 0.25}))
	if err := l.CommitBatch(m1); err != nil {
		t.Fatalf("CommitBatch: %v", err)
	}
	if err := l.CommitBatch(m2); err != nil {
		t.Fatalf("CommitBatch: %v", err)
	}
	if l.Batches() != 2 || l.Records() != 2 {
		t.Errorf("log holds %d batches and %d records, want 2 and 2", l.Batches(), l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var replayed []replayedBatch
	l2, err := openCollecting(path, testBind, &replayed)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	want := []replayedBatch{{m: m1, hubs: []graph.NodeID{7, 3}}, {m: m2}}
	if !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed %+v, want %+v", replayed, want)
	}
	if l2.Batches() != 2 || l2.Records() != 2 {
		t.Errorf("reopened log: %d batches, %d records", l2.Batches(), l2.Records())
	}
}

// TestGraphLogTruncatesTornTail simulates a crash mid-append: a partial frame
// at the end of the log must be dropped on open, keeping every complete batch
// before it.
func TestGraphLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := openUpdateLog(path, testBind, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitBatch(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	goodSize := l.SizeBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn append: a frame header promising more payload than the file holds.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, frame.Overhead+7) // header + 7 of the promised 20 bytes
	binary.LittleEndian.PutUint32(torn[0:], 20)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var replayed []replayedBatch
	l2, err := openCollecting(path, testBind, &replayed)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 1 || len(replayed[0].m.AddedEdges) != 1 {
		t.Fatalf("replayed %v, want just the committed batch", replayed)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != goodSize || l2.SizeBytes() != goodSize {
		t.Errorf("log size after truncation = %d (file %v), want %d", l2.SizeBytes(), err, goodSize)
	}
}

// TestGraphLogStopsAtCorruptFrame flips a payload bit in the second batch's
// mutation: the CRC mismatch must stop replay there, keeping the first batch.
func TestGraphLogStopsAtCorruptFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := openUpdateLog(path, testBind, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitBatch(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	firstEnd := l.SizeBytes()
	if err := l.CommitBatch(GraphMutation{RemovedEdges: []graph.Edge{{From: 3, To: 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstEnd+frame.Overhead+3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var replayed []replayedBatch
	l2, err := openCollecting(path, testBind, &replayed)
	if err != nil {
		t.Fatalf("reopen with corrupt frame: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 1 || len(replayed[0].m.AddedEdges) != 1 {
		t.Fatalf("replayed %v, want just the pre-corruption batch", replayed)
	}
	if l2.SizeBytes() != firstEnd {
		t.Errorf("log truncated to %d, want %d", l2.SizeBytes(), firstEnd)
	}
}

// TestGraphLogCloseDiscardsUncommitted: records staged by a batch whose
// commit never ran (the update failed) must not survive Close, and neither
// may anything of the batch: its mutation was never handed over.
func TestGraphLogCloseDiscardsUncommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := openUpdateLog(path, testBind, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitBatch(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	committedSize := l.SizeBytes()
	l.AppendEncoded(4, encodeVector(sparse.Vector{3: 0.5}))
	if l.stagedRecords != 1 {
		t.Fatal("a staged record does not count as an uncommitted batch")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != committedSize {
		t.Errorf("file size after close = %d (%v), want the committed %d", st.Size(), err, committedSize)
	}
	var replayed []replayedBatch
	l2, err := openCollecting(path, testBind, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != 1 || replayed[0].m.AddedEdges[0] != (graph.Edge{From: 1, To: 2}) || len(replayed[0].hubs) != 0 {
		t.Fatalf("replayed %v, want only the committed batch", replayed)
	}
}

// TestGraphLogRejectsForeignFile: a graph-mutation log of the old two-log
// layout (magic FPG1) found at the update-log path is foreign, and is left as
// it is.
func TestGraphLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	old := make([]byte, 32)
	copy(old, "FPG1")
	binary.LittleEndian.PutUint32(old[4:], 1)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openUpdateLog(path, testBind, nil, nil); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("openUpdateLog on a graph-mutation log = %v, want ErrBadIndexFormat", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(old) {
		t.Fatalf("the rejected file was modified (err=%v)", err)
	}
}

// TestGraphLogTornHeader covers a crash before the header itself was fully
// written: the open must recover by rewriting a fresh header.
func TestGraphLogTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	if err := os.WriteFile(path, []byte{0x46, 0x50, 0x4c}, 0o644); err != nil { // 3 of 40 header bytes
		t.Fatal(err)
	}
	l, err := openUpdateLog(path, testBind, func(GraphMutation) error {
		t.Fatal("nothing should replay from a torn header")
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("openUpdateLog on a torn header: %v", err)
	}
	defer l.Close()
	if l.SizeBytes() != logHeaderBytes || l.Batches() != 0 {
		t.Errorf("recovered log: %d bytes, %d batches", l.SizeBytes(), l.Batches())
	}
}

// TestGraphLogRefusesMismatchedBinding: a log whose header binds it to a
// different base graph (the -graph file was swapped or regenerated) is
// refused with ErrGraphMismatch and left byte for byte as it is, neither
// replayed onto a graph it does not describe nor reset, which would destroy
// its committed batches. On the same graph but another base, the mutation
// still replays, without its record.
func TestGraphLogRefusesMismatchedBinding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	l, err := openUpdateLog(path, testBind, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendEncoded(5, encodeVector(sparse.Vector{1: 0.5}))
	if err := l.CommitBatch(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []GraphBinding{
		{Nodes: 101, Edges: 400, Directed: true},
		{Nodes: 100, Edges: 401, Directed: true},
		{Nodes: 100, Edges: 400, Directed: false},
	} {
		_, err := openUpdateLog(path, logBinding(1000, 30, g), func(GraphMutation) error {
			t.Fatalf("batch replayed despite binding mismatch %+v", g)
			return nil
		}, nil)
		if !errors.Is(err, ErrGraphMismatch) {
			t.Errorf("openUpdateLog bound to %+v = %v, want ErrGraphMismatch", g, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("the refused log was modified (err=%v)", err)
		}
	}
	// The same graph on another base replays the mutation, not the record.
	var replayed []replayedBatch
	l, err = openCollecting(path, logBinding(1000, 31, testGraph), &replayed)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(replayed) != 1 || replayed[0].m.AddedEdges[0] != (graph.Edge{From: 1, To: 2}) || len(replayed[0].hubs) != 0 {
		t.Fatalf("replayed %+v, want the batch's mutation without its record", replayed)
	}
}
