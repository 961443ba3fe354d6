package ppvindex

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fastppv/internal/corpus"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// TestRegenLogCorpora writes the committed seed corpora of the ppvindex fuzz
// targets, building the valid seeds with the real log writer (same binding as
// the fuzz target) and deriving the corrupt ones from them. Gated behind
// PPV_REGEN_CORPUS=1.
func TestRegenLogCorpora(t *testing.T) {
	corpus.SkipUnlessRegen(t)

	// Update log: one seed per batch shape, each a whole committed log.
	mutation := GraphMutation{
		AddedEdges:   []graph.Edge{{From: 1, To: 2}, {From: 2, To: 3}},
		RemovedEdges: []graph.Edge{{From: 3, To: 1}},
		NumNodes:     100,
	}
	batch := func(bind []byte, m GraphMutation, withRecords bool) []byte {
		return logBytes(t, bind, func(l *UpdateLog) error {
			if withRecords {
				l.AppendEncoded(3, encodeVector(sparse.Vector{1: 0.5, 8: 0.25}))
				l.AppendEncoded(9, encodeVector(sparse.Vector{2: 1e-9}))
			}
			return l.CommitBatch(m)
		})
	}
	both := batch(fuzzBind, mutation, true)
	badcrc := append([]byte(nil), both...)
	badcrc[len(badcrc)-1] ^= 0xFF
	otherBase := logBinding(124, 7, GraphBinding{Nodes: 100, Edges: 50, Directed: true})
	otherGraph := logBinding(123, 7, GraphBinding{Nodes: 101, Edges: 50, Directed: true})
	// The layout before batches were frames: version 1, a 24-byte header
	// bound to the base file alone, one hub record per frame.
	v1 := make([]byte, 24)
	binary.LittleEndian.PutUint32(v1[0:], logMagic)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	copy(v1[8:], fuzzBind[:12]) // base size and hub count
	// The layout before float32 scores: version 2, 12-byte entries; the one
	// before delta-coded ids: version 3, fixed 8-byte entries; and the one
	// before score codes: version 4, float32 scores.
	v2 := append([]byte(nil), both...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	v3 := append([]byte(nil), both...)
	binary.LittleEndian.PutUint32(v3[4:], 3)
	v4 := append([]byte(nil), both...)
	binary.LittleEndian.PutUint32(v4[4:], 4)
	// A CRC-valid batch whose record's payload is cut inside its last gap.
	cut := appendRecord(nil, 4, append(rawEntries(5, 6), 0x80))
	corpus.Write(t, "FuzzUpdateLogReplay",
		both,                                   // records and a mutation
		batch(fuzzBind, GraphMutation{}, true), // records only
		batch(fuzzBind, mutation, false),       // mutation only
		both[:len(both)-5],                     // torn batch
		badcrc,                                 // checksum mismatch on the batch
		batch(otherBase, mutation, true),       // bound to another base: records skipped
		v1,                                     // a version-1 header, rejected
		v2,                                     // a version-2 log, rejected
		v3,                                     // a version-3 log, rejected
		v4,                                     // a version-4 log, rejected
		updateLogBytes(t, recordBatch(encodeRecord(3, sparse.Vector{1: 0.5})), recordBatch(cut)), // a gap cut off
		batch(otherGraph, mutation, true), // bound to another graph: refused, left as it is
	)

	// Disk hub records: a canonical record, a truncated one, one whose
	// declared length disagrees with its buffer, scores the gate refuses, and
	// each way a payload is malformed after a good entry.
	rec := encodeRecord(7, sparse.Vector{3: 0.25, 9: 1e-9, 300: 0.5})
	badlength := append([]byte(nil), rec...)
	badlength[4] ^= 0x01
	good := rawEntries(3)
	score := good[1:]
	corpus.Write(t, "FuzzDiskRecordDecode",
		rec,
		rec[:len(rec)-4],
		badlength,
		encodeRecord(0, nil),
		appendRecord(nil, 7, append(bytes.Clone(good), 0x01, 0x01, 0xf8)),                                     // a code just above 1.0's
		appendRecord(nil, 7, append(bytes.Clone(good), 0x01, 0xff, 0xff)),                                     // the largest code
		appendRecord(nil, 7, append(bytes.Clone(good), 0x80)),                                                 // a gap cut off
		appendRecord(nil, 7, append(append(bytes.Clone(good), 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), score...)), // a gap over 5 bytes
		appendRecord(nil, 7, append(append(bytes.Clone(good), 0xff, 0xff, 0xff, 0xff, 0x07), score...)),       // a gap past int32
		appendRecord(nil, 7, append(append(bytes.Clone(good), 0x85, 0x00), score...)),                         // a gap not minimal
		appendRecord(nil, 7, append(bytes.Clone(good), 1, 0)),                                                 // a score cut off
		append(bytes.Clone(rec), 0), // a trailing byte
	)
}
