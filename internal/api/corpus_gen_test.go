package api

import (
	"bytes"
	"testing"

	"fastppv/internal/corpus"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// TestRegenBinaryFrameCorpus writes the committed seed corpus of
// FuzzBinaryFrame and FuzzVectorRoundTrip. Gated: it only runs with
// PPV_REGEN_CORPUS=1, after a codec change that invalidates the seeds.
func TestRegenBinaryFrameCorpus(t *testing.T) {
	corpus.SkipUnlessRegen(t)

	frame := func(ftype byte, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, ftype, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	q := graph.NodeID(42)
	preq, err := EncodePartialRequest(11, "trace-abc", &PartialRequest{
		Query:     &q,
		Iteration: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	frontier := EncodeMap(map[graph.NodeID]float64{3: 0.5, 9: 0.25})
	ereq, err := EncodePartialRequest(12, "", &PartialRequest{
		Frontier:  &frontier,
		Iteration: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	presp, err := EncodePartialResponse(11, &PartialResponse{
		Shard:     1,
		Shards:    4,
		Epoch:     9,
		Increment: EncodeVector(sparse.Vector{1: 0.125, 5: 0.0625}),
		Frontier:  EncodeVector(sparse.Vector{5: 0.03125}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// A well-formed frame of a type no decoder knows: readers tolerate it.
	unknown := frame(0x7F, []byte("unknown"))
	torn := frame(FramePartialRequest, preq)
	torn = torn[:len(torn)-3]
	badCRC := frame(FrameError, EncodeError(5, &Error{Code: "overloaded", Message: "shed"}))
	badCRC[len(badCRC)-1] ^= 0xFF

	corpus.Write(t, "FuzzBinaryFrame",
		unknown,
		frame(FramePartialRequest, preq),
		frame(FramePartialRequest, ereq),
		frame(FramePartialResponse, presp),
		frame(FrameError, EncodeError(5, &Error{Code: "bad_request", Message: "no query"})),
		torn,
		badCRC,
		[]byte("XXXX\x01\x00\x00\x00\x00"),
		[]byte{'F', 'P', 'S', '1', 0x01, 0xFF, 0xFF, 0xFF, 0x7F},
	)

	entries := make([]byte, 3*sparse.EncodedEntrySize)
	sparse.PutEncodedEntry(entries, 1, 0.5)
	sparse.PutEncodedEntry(entries[sparse.EncodedEntrySize:], 1, 0.25) // duplicate id
	sparse.PutEncodedEntry(entries[2*sparse.EncodedEntrySize:], 7, -0.0)
	corpus.Write(t, "FuzzVectorRoundTrip",
		entries,
		entries[:sparse.EncodedEntrySize+5], // ragged tail
	)
}
