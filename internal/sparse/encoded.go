package sparse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fastppv/internal/graph"
)

// encoded.go is the one encoder and the one decoder of hub-record payloads,
// the stored form of a prime PPV that the in-memory index, the disk file, the
// update log and the block cache all hold. A payload is its entries in
// strictly ascending node order, each
//
//	gap   uvarint  node − previous node − 1 (the first entry's gap is its node id)
//	score float32  IEEE-754 bits of StoredScore, little-endian
//
// Node ids lie below 2³¹, so a gap takes one to five bytes, and an entry five
// to nine. Entries vary in size, so a payload is read front to back
// (EncodedReader); nothing indexes into it.

// EncodedEntrySize is the size of an entry in the fixed-width layout that
// records had before their node ids were delta-coded: a uint32 node id and a
// float32 score. No record is written in it any more. It stays exported only
// because the frozen benchmark harness sizes records with it
// (ppvindex.record_bytes_p50).
const EncodedEntrySize = 8

// maxGapBytes is the longest gap a node id below 2³¹ needs; a longer one is
// malformed. minEntryBytes is the shortest entry: a one-byte gap and a score.
const (
	maxGapBytes   = 5
	minEntryBytes = 1 + 4
)

// ErrBadEncoding reports a payload that is not a well-formed encoded record.
// Every decoding failure wraps it.
var ErrBadEncoding = errors.New("sparse: malformed encoded record")

var (
	errGapCut   = fmt.Errorf("%w: a node id gap is cut off", ErrBadEncoding)
	errGapLong  = fmt.Errorf("%w: a node id gap is overlong (more than %d bytes, or not minimal)", ErrBadEncoding, maxGapBytes)
	errIDRange  = fmt.Errorf("%w: a node id gap carries the id past int32", ErrBadEncoding)
	errScoreCut = fmt.Errorf("%w: a score is cut off", ErrBadEncoding)
)

// StoredScore is the score an encoded entry holds for s: s as a float32,
// rounded toward zero. For s >= 0 the stored score is never above s, so a
// fold of stored records stays a pointwise lower bound of the exact PPV and
// the Theorem 2 bound 1 - sum(estimate) stays sound; re-encoding a stored
// score gives it back bit for bit. NaN stays NaN.
func StoredScore(s float64) float32 {
	f := float32(s)
	if math.Abs(float64(f)) > math.Abs(s) {
		f = math.Nextafter32(f, 0)
	}
	return f
}

// gapBytes is the size of gap as a uvarint.
func gapBytes(gap uint32) int { return (bits.Len32(gap|1) + 6) / 7 }

// AppendEncoded appends the record encoding of entries to dst: the one
// encoder of hub-record payloads. Entries must be in strictly ascending node
// order with non-negative ids, as the prime push emits them; it grows dst to
// the exact size once.
func AppendEncoded(dst []byte, entries []Entry) []byte {
	size, next := 0, uint32(0)
	for _, e := range entries {
		size += gapBytes(uint32(e.Node)-next) + 4
		next = uint32(e.Node) + 1
	}
	dst, next = slices.Grow(dst, size), 0
	for _, e := range entries {
		// Out of order ids wrap the gap past 2³¹, which no reader accepts.
		dst = binary.AppendUvarint(dst, uint64(uint32(e.Node)-next))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(StoredScore(e.Score)))
		next = uint32(e.Node) + 1
	}
	return dst
}

// EncodedReader decodes an encoded payload front to back. Next never reads
// past the payload and never panics: on a malformed entry it stops, and Err
// says why. The zero value reads an empty payload.
type EncodedReader struct {
	data []byte
	next uint64 // the smallest node id the next entry may hold
	err  error
}

// NewEncodedReader returns a reader at the first entry of data, which it
// aliases.
func NewEncodedReader(data []byte) EncodedReader { return EncodedReader{data: data} }

// Next returns the next entry, its score widened to float64 exactly. ok is
// false at the end of the payload and at the first malformed entry.
func (r *EncodedReader) Next() (id graph.NodeID, score float64, ok bool) {
	if b := r.data; len(b) >= minEntryBytes && b[0] < 0x80 {
		// A one-byte gap, the common case, inline.
		if n := r.next + uint64(b[0]); n <= math.MaxInt32 {
			r.next, r.data = n+1, b[minEntryBytes:]
			return graph.NodeID(n), float64(math.Float32frombits(binary.LittleEndian.Uint32(b[1:]))), true
		}
	}
	return r.nextSlow()
}

// nextSlow is Next for a gap of more than one byte, a malformed entry or the
// end of the payload.
func (r *EncodedReader) nextSlow() (graph.NodeID, float64, bool) {
	b := r.data
	if len(b) == 0 {
		return 0, 0, false
	}
	gap, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return r.fail(errGapCut)
	case n < 0 || n > maxGapBytes || n > 1 && b[n-1] == 0:
		return r.fail(errGapLong)
	case r.next+gap > math.MaxInt32:
		return r.fail(errIDRange)
	case len(b)-n < 4:
		return r.fail(errScoreCut)
	}
	id := r.next + gap
	r.next, r.data = id+1, b[n+4:]
	return graph.NodeID(id), float64(math.Float32frombits(binary.LittleEndian.Uint32(b[n:]))), true
}

func (r *EncodedReader) fail(err error) (graph.NodeID, float64, bool) {
	r.data, r.err = nil, err
	return 0, 0, false
}

// Err reports why Next stopped early: nil once the whole payload decoded,
// else an error wrapping ErrBadEncoding.
func (r *EncodedReader) Err() error { return r.err }

// AppendDecoded appends the entries of an encoded payload to dst, up to the
// first malformed entry. The payload's length bounds what it allocates.
func AppendDecoded(dst []Entry, data []byte) []Entry {
	dst = slices.Grow(dst, len(data)/minEntryBytes)
	r := NewEncodedReader(data)
	for id, s, ok := r.Next(); ok; id, s, ok = r.Next() {
		dst = append(dst, Entry{Node: id, Score: s})
	}
	return dst
}

// EncodedLen returns the number of entries of an encoded payload, up to the
// first malformed entry.
func EncodedLen(data []byte) int {
	n := 0
	for r := NewEncodedReader(data); ; n++ {
		if _, _, ok := r.Next(); !ok {
			return n
		}
	}
}
