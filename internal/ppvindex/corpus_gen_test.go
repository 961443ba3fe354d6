package ppvindex

import (
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
	// The layout before batches were frames: version 1, a 24-byte header
	// bound to the base file alone, one hub record per frame.
	v1 := make([]byte, 24)
	binary.LittleEndian.PutUint32(v1[0:], logMagic)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	copy(v1[8:], fuzzBind[:12]) // base size and hub count
	corpus.Write(t, "FuzzUpdateLogReplay",
		both,                                   // records and a mutation
		batch(fuzzBind, GraphMutation{}, true), // records only
		batch(fuzzBind, mutation, false),       // mutation only
		both[:len(both)-5],                     // torn batch
		badcrc,                                 // checksum mismatch on the batch
		batch(otherBase, mutation, true),       // bound to another base: records skipped
		v1,                                     // a version-1 header, rejected
	)

	// Disk hub records: a canonical record, a truncated one, and one whose
	// declared count disagrees with its length.
	rec := encodeRecord(7, sparse.Vector{3: 0.25, 9: 1e-12, 11: -0.5})
	badcount := append([]byte(nil), rec...)
	badcount[4] ^= 0x01
	corpus.Write(t, "FuzzDiskRecordDecode",
		rec,
		rec[:len(rec)-4],
		badcount,
		encodeRecord(0, nil),
	)
}
