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

// encodeRecord is the whole record (hub, length, payload) of a map-form PPV,
// as the disk file and an update-log frame hold it.
func encodeRecord(h graph.NodeID, ppv sparse.Vector) []byte {
	return appendRecord(nil, h, encodeVector(ppv))
}

// rawEntries encodes nodes, scored 1/2, 1/3, ..., in the order given, sorted
// or not: a node at or below the one before it wraps its gap past int32,
// which every reader refuses.
func rawEntries(nodes ...graph.NodeID) []byte {
	entries := make([]sparse.Entry, len(nodes))
	for i, n := range nodes {
		entries[i] = sparse.Entry{Node: n, Score: 1 / float64(i+2)}
	}
	return sparse.AppendEncoded(nil, entries)
}

// strictlyAscending reports whether an entry payload decodes whole, in the
// order every reader assumes.
func strictlyAscending(payload []byte) bool {
	r := sparse.NewEncodedReader(payload)
	prev := graph.NodeID(-1)
	for node, _, ok := r.Next(); ok; node, _, ok = r.Next() {
		if node <= prev {
			return false
		}
		prev = node
	}
	return r.Err() == nil
}

// scoresSound reports whether every score of an entry payload lies in
// (0, 1]: what the lower-bound argument of the stored records needs.
func scoresSound(payload []byte) bool {
	r := sparse.NewEncodedReader(payload)
	for _, s, ok := r.Next(); ok; _, s, ok = r.Next() {
		if !(s > 0 && s <= 1) {
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

// fuzzBatch is one replayed batch with its records whole (hub, length,
// payload), copied out of the replay buffer.
type fuzzBatch struct {
	m       GraphMutation
	records [][]byte
}

// FuzzUpdateLogReplay opens arbitrary bytes as an update log of batch frames.
// The contract: the open either succeeds (truncating a torn tail, rewriting a
// foreign base binding down to its mutations) or fails with an error wrapping
// ErrBadIndexFormat, or ErrGraphMismatch for a log bound to another graph,
// and leaves the file as it was — never a panic — and a file it accepted
// replays identically on reopen. Every replayed record is strictly ascending with every score
// in (0, 1], and committing the replayed batches again through
// AppendEncoded and CommitBatch reproduces the repaired file's frames byte
// for byte: nothing is normalized on the way in, so nothing unsorted can hide.
func FuzzUpdateLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FPL1garbage"))
	// CRC-valid frames that are not batches: descending ids, a repeated id
	// (each a gap wrapped past int32), a length that does not cover the
	// record. Each follows a good frame.
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
			if !scoresSound(payload) {
				t.Fatalf("replay accepted a record of hub %d with a score outside (0, 1]", h)
			}
			last := &replayed[len(replayed)-1]
			last.records = append(last.records, appendRecord(nil, h, payload))
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrBadIndexFormat) && !errors.Is(err, ErrGraphMismatch) {
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
// Rejections — a length that does not cover the buffer, a gap cut off,
// overlong or carrying the id past int32, a score cut off, a bad score —
// must wrap ErrBadIndexFormat. Whatever is accepted decodes whole, strictly
// ascending with every score in (0, 1], is returned as the very
// bytes that came in (re-framing them gives the input back), and survives the
// boundary round trip view -> map -> encoder byte for byte, every score
// bit-identical.
func FuzzDiskRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRecord(7, sparse.Vector{3: 0.25, 9: 1e-9}))
	f.Add(appendRecord(nil, 7, rawEntries(9, 3)))
	f.Add(appendRecord(nil, 7, rawEntries(3, 3)))
	f.Add(appendRecord(nil, 7, []byte{3, 0x01, 0xf8})) // a code above 1.0's
	f.Add(appendRecord(nil, 7, []byte{3, 0xff, 0xff})) // the largest code
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
		if !scoresSound(payload) {
			t.Fatalf("accepted a record of hub %d with a score outside (0, 1]", h)
		}
		if !bytes.Equal(appendRecord(nil, h, payload), data) {
			t.Fatalf("re-framing the accepted record of hub %d does not give the input back", h)
		}
		view := NewHubRecordView(payload)
		v := view.Vector()
		if len(v) != view.Len() {
			t.Fatalf("decoding %d entries gave a map of %d", view.Len(), len(v))
		}
		if enc := encodeVector(v); !bytes.Equal(enc, payload) {
			t.Fatalf("record of hub %d does not round-trip through the map form", h)
		}
	})
}
