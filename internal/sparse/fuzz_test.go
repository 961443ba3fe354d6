package sparse

import (
	"encoding/binary"
	"math"
	"testing"

	"fastppv/internal/graph"
)

// FuzzEncodedRoundTrip drives the flat (node, score) entry encoding shared
// with the disk-index record format. The input bytes are chopped into
// entries (duplicate ids collapse through the map, as they do on a real
// decode), canonicalized through an Accumulator, encoded, and decoded again:
// the canonical form must round-trip bit-for-bit. NaN scores are left out:
// widening a signalling float32 NaN quiets it, so a NaN is not bit-stable,
// and the index refuses records that hold one. Each 8-byte chunk of the input
// is also read as a float64 x: its stored score is never farther from zero
// than x, so for x >= 0 decode(encode(x)) <= x.
func FuzzEncodedRoundTrip(f *testing.F) {
	seed := make([]byte, 2*EncodedEntrySize)
	PutEncodedEntry(seed, 3, 0.5)
	PutEncodedEntry(seed[EncodedEntrySize:], 9, -1e300)
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for at := 0; at+8 <= len(data); at += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[at:]))
			var b [EncodedEntrySize]byte
			PutEncodedEntry(b[:], 0, x)
			if _, s := EncodedEntryAt(b[:], 0); math.Abs(s) > math.Abs(x) || x >= 0 && !(s >= 0 && s <= x) {
				t.Fatalf("%v stored as %v, not toward zero", x, s)
			}
		}
		n := len(data) / EncodedEntrySize
		v := New(n)
		for i := 0; i < n; i++ {
			id, s := EncodedEntryAt(data[:n*EncodedEntrySize], i)
			if !math.IsNaN(s) {
				v[id] = s
			}
		}
		var a Accumulator
		a.SetVector(v)
		if a.Len() != len(v) {
			t.Fatalf("SetVector kept %d of %d entries", a.Len(), len(v))
		}
		enc := make([]byte, a.Len()*EncodedEntrySize)
		for i, e := range a.Entries() {
			PutEncodedEntry(enc[i*EncodedEntrySize:], e.Node, e.Score)
		}
		var b Accumulator
		b.SetEncoded(enc)
		if b.Len() != a.Len() {
			t.Fatalf("SetEncoded kept %d of %d entries", b.Len(), a.Len())
		}
		be := b.Entries()
		var prev graph.NodeID
		for i, e := range a.Entries() {
			if be[i].Node != e.Node || math.Float64bits(be[i].Score) != math.Float64bits(e.Score) {
				t.Fatalf("entry %d: (%d, %x) round-tripped to (%d, %x)",
					i, e.Node, math.Float64bits(e.Score), be[i].Node, math.Float64bits(be[i].Score))
			}
			if i > 0 && e.Node <= prev {
				t.Fatalf("canonical entries not strictly ascending at %d: %d after %d", i, e.Node, prev)
			}
			prev = e.Node
		}
	})
}

// FuzzCombineRuns splits the input into records and checks Combine against
// the stable-sort-then-left-fold reference, bit for bit. Each record is a
// header byte — its entry count in the low four bits, and in the high bit
// whether its first entry's node is the owner hub — followed by that many
// encoded entries (fewer if the input runs out). Ids and scores are
// arbitrary, so records may be out of order, repeat ids or hold NaNs.
func FuzzCombineRuns(f *testing.F) {
	f.Add([]byte{}) // more seeds: testdata/fuzz, from TestRegenCombineCorpus
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []stagedRecord
		for len(data) > 0 {
			head := data[0]
			n := min(int(head&0x0f)*EncodedEntrySize, (len(data)-1)/EncodedEntrySize*EncodedEntrySize)
			rec := stagedRecord{data: data[1 : 1+n], scale: 1, owner: -1}
			if head&0x80 != 0 && n > 0 {
				rec.owner, _ = EncodedEntryAt(rec.data, 0)
			}
			recs = append(recs, rec)
			data = data[1+n:]
		}
		var a Accumulator
		stageAll(&a, recs)
		a.Combine()
		sameBits(t, "Combine", a.Entries(), referenceCombine(nil, recs))
	})
}
