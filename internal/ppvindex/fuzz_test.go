package ppvindex

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// fuzzBind is the binding both the fuzz target and the corpus generator open
// update logs with, so committed seeds replay instead of being reset as
// foreign.
var fuzzBind = logBinding(123, 7, GraphBinding{Nodes: 100, Edges: 50, Directed: true})

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

// updateLogBytes writes a log holding the given raw batch frame payloads —
// valid batches or not, each gets a correct CRC — and returns the file's bytes.
func updateLogBytes(t testing.TB, batches ...[]byte) []byte {
	t.Helper()
	return logBytes(t, fuzzBind, func(l *UpdateLog) error {
		for _, batch := range batches {
			if err := l.log.Append(batch); err != nil {
				return err
			}
		}
		return l.log.Commit()
	})
}

// logBytes writes a log bound to bind through fill and returns the file's
// bytes.
func logBytes(t testing.TB, bind []byte, fill func(*UpdateLog) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.log")
	l, err := openUpdateLog(path, bind, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fill(l); err != nil {
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

// fuzzBatch is one replayed batch with its records whole (hub, count,
// payload), copied out of the replay buffer.
type fuzzBatch struct {
	m       GraphMutation
	records [][]byte
}

// FuzzUpdateLogReplay opens arbitrary bytes as an update log of batch frames.
// The contract: the open either succeeds (truncating a torn tail, resetting a
// foreign graph binding, rewriting a foreign base binding down to its
// mutations) or fails with an error wrapping ErrBadIndexFormat and leaves the
// file as it was — never a panic — and a file it accepted replays identically
// on reopen. Every replayed record is strictly ascending, and committing the
// replayed batches again through AppendEncoded and CommitBatch reproduces the
// repaired file's frames byte for byte: nothing is normalized on the way in,
// so nothing unsorted can hide.
func FuzzUpdateLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FPL1garbage"))
	// CRC-valid frames that are not batches: descending ids, a repeated id,
	// a count that does not cover the record. Each follows a good frame.
	good := recordBatch(encodeRecord(3, sparse.Vector{1: 0.5, 8: 0.25}))
	f.Add(updateLogBytes(f, good, recordBatch(appendRecord(nil, 4, rawEntries(9, 2))), good))
	f.Add(updateLogBytes(f, good, recordBatch(appendRecord(nil, 4, rawEntries(5, 5)))))
	f.Add(updateLogBytes(f, good, recordBatch(append(appendRecord(nil, 4, rawEntries(5, 6)), 0, 0, 0))))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "update.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed []fuzzBatch
		l, err := openUpdateLog(path, fuzzBind, func(m GraphMutation) error {
			replayed = append(replayed, fuzzBatch{m: m})
			return nil
		}, func(h graph.NodeID, payload []byte) error {
			if !strictlyAscending(payload) {
				t.Fatalf("replay accepted a record of hub %d that is not strictly ascending", h)
			}
			last := &replayed[len(replayed)-1]
			last.records = append(last.records, appendRecord(nil, h, payload))
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrBadIndexFormat) {
				t.Fatalf("openUpdateLog returned unstructured error %v", err)
			}
			if kept, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(kept, data) {
				t.Fatalf("a rejected log was modified (err=%v)", rerr)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatalf("closing an accepted update log failed: %v", err)
		}
		// The first open repaired the file (torn tail truncated, foreign
		// binding reset or rewritten); a reopen must be clean and replay the
		// same batches.
		var again []fuzzBatch
		l2, err := openUpdateLog(path, fuzzBind, func(m GraphMutation) error {
			again = append(again, fuzzBatch{m: m})
			return nil
		}, func(h graph.NodeID, payload []byte) error {
			last := &again[len(again)-1]
			last.records = append(last.records, appendRecord(nil, h, payload))
			return nil
		})
		if err != nil {
			t.Fatalf("reopening a repaired update log failed: %v", err)
		}
		defer l2.Close()
		if !reflect.DeepEqual(again, replayed) {
			t.Fatalf("reopen replayed %d batches that differ from the %d of the first open", len(again), len(replayed))
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recommitted := logBytes(t, fuzzBind, func(l *UpdateLog) error {
			for _, b := range replayed {
				for _, rec := range b.records {
					h, payload, err := parseRecord(rec)
					if err != nil {
						return err
					}
					l.AppendEncoded(h, payload)
				}
				if err := l.CommitBatch(b.m); err != nil {
					return err
				}
			}
			return nil
		})
		if !bytes.Equal(repaired, recommitted) {
			t.Fatalf("committing the %d replayed batches again gives a different file than the accepted one", len(replayed))
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
