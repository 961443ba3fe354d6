package ppvindex

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// fuzzUpdateBinding is the (baseBytes, baseHubs) binding both the fuzz target
// and the corpus generator open update logs with, so committed seeds replay
// instead of being reset as foreign.
const (
	fuzzUpdateBaseBytes = 123
	fuzzUpdateBaseHubs  = 7
)

// fuzzGraphBinding is the shared graph-log binding of target and seeds.
var fuzzGraphBinding = GraphLogBinding{Nodes: 100, Edges: 50, Directed: true}

// encodeRecord is the whole record (hub, count, payload) of a map-form PPV,
// as the disk file and an update-log frame hold it.
func encodeRecord(h graph.NodeID, ppv sparse.Vector) []byte {
	return appendRecord(nil, h, encodeVector(ppv))
}

// rawEntries encodes (node, score) pairs in the order given, sorted or not.
func rawEntries(nodes ...graph.NodeID) []byte {
	out := make([]byte, len(nodes)*entryBytes)
	for i, n := range nodes {
		sparse.PutEncodedEntry(out[i*entryBytes:], n, 1/float64(i+2))
	}
	return out
}

// strictlyAscending reports whether an entry payload is in the order every
// reader assumes.
func strictlyAscending(payload []byte) bool {
	for i := 1; i < len(payload)/entryBytes; i++ {
		prev, _ := sparse.EncodedEntryAt(payload, i-1)
		if node, _ := sparse.EncodedEntryAt(payload, i); node <= prev {
			return false
		}
	}
	return true
}

// updateLogBytes writes a log holding the given raw frame payloads — valid
// records or not, each gets a correct CRC — and returns the file's bytes.
func updateLogBytes(t testing.TB, records ...[]byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.log")
	l, err := OpenUpdateLog(path, fuzzUpdateBaseBytes, fuzzUpdateBaseHubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := l.log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzUpdateLogReplay opens arbitrary bytes as an FPL1 update log. The
// contract: OpenUpdateLog either succeeds (truncating a torn tail, resetting
// a foreign binding) or fails with an error wrapping ErrBadIndexFormat —
// never a panic — and a file it accepted replays identically on reopen.
// Whatever it replays is strictly ascending, and writing the replayed records
// back through AppendEncoded reproduces the repaired file's frames byte for
// byte: nothing is normalized on the way in, so nothing unsorted can hide.
func FuzzUpdateLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FPL1garbage"))
	// CRC-valid frames that are not records: descending ids, a repeated id,
	// a count that does not cover the frame. Each follows a good frame.
	good := encodeRecord(3, sparse.Vector{1: 0.5, 8: 0.25})
	f.Add(updateLogBytes(f, good, appendRecord(nil, 4, rawEntries(9, 2)), good))
	f.Add(updateLogBytes(f, good, appendRecord(nil, 4, rawEntries(5, 5))))
	f.Add(updateLogBytes(f, good, append(appendRecord(nil, 4, rawEntries(5, 6)), 0, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "update.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed [][]byte // whole records, copied out of the replay buffer
		l, err := OpenUpdateLog(path, fuzzUpdateBaseBytes, fuzzUpdateBaseHubs, func(h graph.NodeID, payload []byte) error {
			if !strictlyAscending(payload) {
				t.Fatalf("replay accepted a record of hub %d that is not strictly ascending", h)
			}
			replayed = append(replayed, appendRecord(nil, h, payload))
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrBadIndexFormat) {
				t.Fatalf("OpenUpdateLog returned unstructured error %v", err)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatalf("closing an accepted update log failed: %v", err)
		}
		// The first open repaired the file (torn tail truncated, foreign
		// binding reset); a reopen must be clean and replay the same records.
		again := 0
		l2, err := OpenUpdateLog(path, fuzzUpdateBaseBytes, fuzzUpdateBaseHubs, func(h graph.NodeID, payload []byte) error {
			if again < len(replayed) && !bytes.Equal(appendRecord(nil, h, payload), replayed[again]) {
				t.Fatalf("reopen replayed a different record %d", again)
			}
			again++
			return nil
		})
		if err != nil {
			t.Fatalf("reopening a repaired update log failed: %v", err)
		}
		defer l2.Close()
		if again != len(replayed) {
			t.Fatalf("reopen replayed %d records, first open replayed %d", again, len(replayed))
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The header's reserved bytes are the file's own; the frames are not.
		if rewritten := updateLogBytes(t, replayed...); !bytes.Equal(repaired[logHeaderBytes:], rewritten[logHeaderBytes:]) {
			t.Fatalf("re-appending the %d replayed records gives different frames than the accepted file holds", len(replayed))
		}
	})
}

// FuzzGraphLogReplay is FuzzUpdateLogReplay for the FPG1 graph-mutation log.
func FuzzGraphLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FPG1garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "graph.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		replayed := 0
		l, err := OpenGraphLog(path, fuzzGraphBinding, func(m GraphMutation) error {
			replayed++
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrBadIndexFormat) {
				t.Fatalf("OpenGraphLog returned unstructured error %v", err)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatalf("closing an accepted graph log failed: %v", err)
		}
		again := 0
		l2, err := OpenGraphLog(path, fuzzGraphBinding, func(m GraphMutation) error {
			again++
			return nil
		})
		if err != nil {
			t.Fatalf("reopening a repaired graph log failed: %v", err)
		}
		defer l2.Close()
		if again != replayed {
			t.Fatalf("reopen replayed %d records, first open replayed %d", again, replayed)
		}
	})
}

// FuzzDiskRecordDecode drives the hub-record validator with arbitrary bytes.
// Rejections must wrap ErrBadIndexFormat. Whatever is accepted is strictly
// ascending, is returned as the very bytes that came in (re-framing them gives
// the input back), and survives the boundary round trip view -> map -> encoder
// byte for byte, every score bit-identical.
func FuzzDiskRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRecord(7, sparse.Vector{3: 0.25, 9: 1e-12}))
	f.Add(appendRecord(nil, 7, rawEntries(9, 3)))
	f.Add(appendRecord(nil, 7, rawEntries(3, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := parseRecord(data)
		if err != nil {
			if !errors.Is(err, ErrBadIndexFormat) {
				t.Fatalf("parseRecord returned unstructured error %v", err)
			}
			return
		}
		if !strictlyAscending(payload) {
			t.Fatalf("accepted a record of hub %d that is not strictly ascending", h)
		}
		if !bytes.Equal(appendRecord(nil, h, payload), data) {
			t.Fatalf("re-framing the accepted record of hub %d does not give the input back", h)
		}
		v := NewHubRecordView(h, payload, nil).Vector()
		if len(v) != len(payload)/entryBytes {
			t.Fatalf("decoding %d entries gave a map of %d", len(payload)/entryBytes, len(v))
		}
		if enc := encodeVector(v); !bytes.Equal(enc, payload) {
			t.Fatalf("record of hub %d does not round-trip through the map form", h)
		}
	})
}
