package sparse

import (
	"math"
	"testing"

	"fastppv/internal/corpus"
	"fastppv/internal/graph"
)

// TestRegenEncodedCorpus writes the committed seed corpus of
// FuzzEncodedRoundTrip. Gated behind PPV_REGEN_CORPUS=1.
func TestRegenEncodedCorpus(t *testing.T) {
	corpus.SkipUnlessRegen(t)
	entries := func(pairs ...float64) []byte {
		buf := make([]byte, (len(pairs)/2)*EncodedEntrySize)
		for i := 0; i+1 < len(pairs); i += 2 {
			PutEncodedEntry(buf[(i/2)*EncodedEntrySize:],
				graph.NodeID(pairs[i]), pairs[i+1])
		}
		return buf
	}
	corpus.Write(t, "FuzzEncodedRoundTrip",
		entries(1, 0.5, 2, 0.25, 3, 0.125),
		entries(7, -0.0, 7, 0.0), // duplicate id, signed zero
		entries(0, math.Inf(1), 4294967295, math.SmallestNonzeroFloat64),
		entries(5, 1e300, 6, 2.0)[:EncodedEntrySize+3], // ragged tail
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
		// A descending record: three runs in one.
		record(0, Entry{Node: 9, Score: 1}, Entry{Node: 5, Score: 2}, Entry{Node: 1, Score: 3}),
		// Empty records between, a NaN and a repeated id.
		join(record(0), record(0, Entry{Node: 3, Score: math.NaN()}, Entry{Node: 3, Score: 1}),
			record(0), record(0, Entry{Node: 3, Score: -0.0})),
		// A header promising more entries than the input holds.
		record(0, Entry{Node: 2, Score: 0.5})[:EncodedEntrySize-3],
	)
}
