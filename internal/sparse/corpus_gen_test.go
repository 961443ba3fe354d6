package sparse

import (
	"bytes"
	"math"
	"testing"

	"fastppv/internal/corpus"
	"fastppv/internal/graph"
)

// TestRegenEncodedCorpus writes the committed seed corpus of
// FuzzEncodedRoundTrip: well-formed payloads, and each way a payload is
// malformed after a good entry. Gated behind PPV_REGEN_CORPUS=1.
func TestRegenEncodedCorpus(t *testing.T) {
	corpus.SkipUnlessRegen(t)
	entries := func(pairs ...float64) []byte {
		var es []Entry
		for i := 0; i+1 < len(pairs); i += 2 {
			es = append(es, Entry{Node: graph.NodeID(pairs[i]), Score: pairs[i+1]})
		}
		return AppendEncoded(nil, es)
	}
	good := entries(1, 0.5, 2, 0.25, 300, 0.125) // one- and two-byte gaps
	score := good[1:3]
	corpus.Write(t, "FuzzEncodedRoundTrip",
		good,
		entries(7, 0x1p-31, 8, 1, 9, 0, math.MaxInt32, 0.999),                           // the smallest and largest codes, a score not stored, the largest id
		append(bytes.Clone(good), 0x80),                                                 // a gap cut off
		append(append(bytes.Clone(good), 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), score...), // a gap over 5 bytes
		append(append(bytes.Clone(good), 0xff, 0xff, 0xff, 0xff, 0x07), score...),       // a gap past int32
		append(bytes.Clone(good), 0x01, 0),                                              // a score cut off
		append(append(bytes.Clone(good), 0x81, 0x00), score...),                         // a gap not minimal
		append(bytes.Clone(good), 0x01, 0xff, 0xff),                                     // a code above 1.0's
		nil,
	)
}

// TestRegenCombineCorpus writes the committed seed corpus of FuzzCombineRuns:
// header-framed records (see FuzzCombineRuns) built with the real encoder.
// Gated behind PPV_REGEN_CORPUS=1.
func TestRegenCombineCorpus(t *testing.T) {
	corpus.SkipUnlessRegen(t)
	record := func(head byte, entries ...Entry) []byte {
		return append([]byte{head | byte(len(entries))}, encodeEntries(entries...)...)
	}
	join := func(records ...[]byte) []byte {
		var out []byte
		for _, r := range records {
			out = append(out, r...)
		}
		return out
	}
	corpus.Write(t, "FuzzCombineRuns",
		// Two ascending records sharing node 4, the owner dropped by the
		// self-correction in the first.
		join(record(0x80, Entry{Node: 1, Score: 0.15}, Entry{Node: 4, Score: 0.1}),
			record(0, Entry{Node: 4, Score: 0.3}, Entry{Node: 8, Score: 1e-17})),
		// Descending records: three runs.
		join(record(0, Entry{Node: 9, Score: 1}), record(0, Entry{Node: 5, Score: 0.5}), record(0, Entry{Node: 1, Score: 0.25})),
		// Empty records between, and a repeated id.
		join(record(0), record(0, Entry{Node: 3, Score: 0x1p-31}), record(0, Entry{Node: 3, Score: 1}),
			record(0), record(0, Entry{Node: 3, Score: 0.75})),
		// A header promising more entries than the input holds.
		record(0, Entry{Node: 2, Score: 0.5})[:3],
	)
}
