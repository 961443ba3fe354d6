package ppvindex

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

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
		}{h, NewHubRecordView(h, payload, nil).Vector()})
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
// does not hold a record — node ids out of order or repeated, or a count that
// does not cover the frame — is a bad frame. Replay stops there, keeps what
// came before and truncates the rest, as it does for a checksum mismatch.
func TestUpdateLogReplayStopsAtUnsortedRecord(t *testing.T) {
	good := encodeRecord(1, sparse.Vector{4: 0.5, 6: 0.25})
	for name, bad := range map[string][]byte{
		"descending ids": appendRecord(nil, 2, rawEntries(9, 5)),
		"repeated id":    appendRecord(nil, 2, rawEntries(5, 5)),
		"short count":    append(appendRecord(nil, 2, rawEntries(5, 9)), make([]byte, entryBytes)...),
		"long count":     appendRecord(nil, 2, rawEntries(5, 9))[:perHubOverheadBytes+entryBytes],
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "idx.log")
			if err := os.WriteFile(path, updateLogBytes(t, good, bad, good), 0o644); err != nil {
				t.Fatal(err)
			}
			var replayed []struct {
				hub graph.NodeID
				ppv sparse.Vector
			}
			l, err := OpenUpdateLog(path, fuzzUpdateBaseBytes, fuzzUpdateBaseHubs, collectReplay(&replayed))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer l.Close()
			if len(replayed) != 1 || replayed[0].hub != 1 || replayed[0].ppv[6] != 0.25 {
				t.Fatalf("replayed %v, want just the frame before the bad one", replayed)
			}
			if want := int64(logHeaderBytes + frame.Overhead + len(good)); l.Records() != 1 || l.SizeBytes() != want {
				t.Errorf("log holds %d records in %d bytes, want 1 in %d", l.Records(), l.SizeBytes(), want)
			}
		})
	}
}

// TestUpdateLogCloseDiscardsUncommitted: frames appended by a batch whose
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

func TestUpdateLogReset(t *testing.T) {
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
	if err := l.Reset(1000, 30); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.SizeBytes() != logHeaderBytes || l.Records() != 0 {
		t.Errorf("after Reset: %d bytes, %d records", l.SizeBytes(), l.Records())
	}
	// Appends keep working after a reset, and only they replay.
	if err := l.Append(2, sparse.Vector{6: 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
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
	if len(replayed) != 1 || replayed[0].hub != 2 {
		t.Fatalf("replayed %v, want just the post-reset record", replayed)
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

// TestUpdateLogDiscardsMismatchedBinding: a log bound to a different base
// file (leftover of a crashed rebuild, or of a compaction that renamed the
// new base but died before resetting the log) must be discarded on open, not
// replayed onto a base it does not describe.
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
	for _, bind := range []struct {
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
		if l2.SizeBytes() != logHeaderBytes || l2.Records() != 0 {
			t.Errorf("mismatched log not discarded: %d bytes, %d records", l2.SizeBytes(), l2.Records())
		}
		// The reset re-binds to the new base; closing keeps it empty for the
		// next iteration (which mismatches again on purpose).
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
