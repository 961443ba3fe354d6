package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzEncodedRoundTrip drives the record encoding shared with the disk-index
// format (uvarint node-id gaps beside 16-bit score codes) with arbitrary
// bytes. The reader never panics and allocates in proportion to the input: it
// decodes strictly ascending entries up to the first malformed one — a gap
// cut off, overlong (more than 5 bytes, or not minimal) or carrying the id
// past int32, a score cut off — and then reports an error wrapping
// ErrBadEncoding. Every score decodes finite and positive. Re-encoding the
// decoded entries gives back the bytes they came from: the whole input when
// it is well formed. Scores above 1 are left out of that check: their codes
// lie above 1.0's, the encoder stores such a score as 1, and the index
// refuses records that hold one. Each 8-byte chunk of the input is also read
// as a float64 x: its stored score is never above x, and never negative.
func FuzzEncodedRoundTrip(f *testing.F) {
	f.Add(AppendEncoded(nil, []Entry{{Node: 3, Score: 0.5}, {Node: 900, Score: 1e-3}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for at := 0; at+8 <= len(data); at += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[at:]))
			r := NewEncodedReader(AppendEncoded(nil, []Entry{{Node: 0, Score: x}}))
			if _, s, _ := r.Next(); s < 0 || s > x {
				t.Fatalf("%v stored as %v, not toward zero", x, s)
			}
		}
		r := NewEncodedReader(data)
		var entries []Entry
		over := false
		for id, s, ok := r.Next(); ok; id, s, ok = r.Next() {
			if n := len(entries); n > 0 && id <= entries[n-1].Node || id < 0 {
				t.Fatalf("entry %d decodes to node %d, not above the one before it", n, id)
			}
			if !(s > 0) || math.IsInf(s, 0) {
				t.Fatalf("entry %d decodes to score %v", len(entries), s)
			}
			entries = append(entries, Entry{Node: id, Score: s})
			over = over || s > 1
		}
		if err := r.Err(); err != nil && !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("reader stopped with unstructured error %v", err)
		}
		var a Accumulator
		a.SetEncoded(data)
		sameBits(t, "SetEncoded", a.Entries(), entries)
		if c := cap(a.entries); c > 2*(len(data)/minEntryBytes)+8 { // size classes round up
			t.Fatalf("SetEncoded of %d bytes allocated room for %d entries", len(data), c)
		}
		if n := EncodedLen(data); n != len(entries) {
			t.Fatalf("EncodedLen = %d, want %d", n, len(entries))
		}
		enc := AppendEncoded(nil, entries)
		if !over && !bytes.HasPrefix(data, enc) {
			t.Fatalf("%d decoded entries re-encode to % x, not the bytes they came from", len(entries), enc)
		}
		if !over && r.Err() == nil && len(enc) != len(data) {
			t.Fatalf("a well-formed payload of %d bytes re-encodes to %d", len(data), len(enc))
		}
		if !over && r.Err() == nil {
			var b Accumulator
			b.SetEncoded(enc)
			sameBits(t, "round trip", b.Entries(), entries)
		}
	})
}

// FuzzCombineRuns splits the input into records and checks Combine against
// the stable-sort-then-left-fold reference, bit for bit. Each record is a
// header byte — its entry count in the low four bits, and in the high bit
// whether its first entry's node is the owner hub — followed by that many
// encoded entries; a record that runs out of input or holds a malformed
// entry takes the rest of it. Ids and scores are arbitrary, so records may
// go down or repeat ids between them.
func FuzzCombineRuns(f *testing.F) {
	f.Add([]byte{}) // more seeds: testdata/fuzz, from TestRegenCombineCorpus
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []stagedRecord
		for len(data) > 0 {
			head := data[0]
			r := NewEncodedReader(data[1:])
			for i := 0; i < int(head&0x0f); i++ {
				if _, _, ok := r.Next(); !ok {
					break
				}
			}
			end := len(data) - len(r.data)
			if r.Err() != nil {
				end = len(data)
			}
			rec := stagedRecord{data: data[1:end], scale: 1, owner: -1}
			if first := NewEncodedReader(rec.data); head&0x80 != 0 {
				if id, _, ok := first.Next(); ok {
					rec.owner = id
				}
			}
			recs = append(recs, rec)
			data = data[end:]
		}
		var a Accumulator
		stageAll(&a, recs)
		a.Combine()
		sameBits(t, "Combine", a.Entries(), referenceCombine(nil, recs))
	})
}
