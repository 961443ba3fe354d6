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
//	score uint16   the score's code, little-endian
//
// A code c = E<<11 | m, for E in [0, 31] and m in [0, 2¹¹), stands for the
// score 2^(E−31)·(1 + m/2¹¹): an unsigned float with an 11-bit mantissa that
// spans [2⁻³¹, 1]. Codes sort in the order of their scores; a code above
// 31<<11, a score above 1, is malformed. StoredScore says which code a score
// gets.
//
// Node ids lie below 2³¹, so a gap takes one to five bytes, and an entry three
// to seven. Entries vary in size, so a payload is read front to back
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
	scoreBytes    = 2
	minEntryBytes = 1 + scoreBytes
)

// A score code's float64 bits are the code shifted into the top 16 bits of
// the mantissa and exponent, plus codeBias: the exponent 992 − 1023 = −31 of
// code 0. maxScoreCode is the code of 1.0, the largest score a record holds,
// and minStored the smallest, the score of code 0.
const (
	codeShift    = 52 - 11
	codeBias     = 992 << 52
	maxScoreCode = 31 << 11
	minStored    = 0x1p-31
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

// scoreCode is the code of s, rounded toward zero: the code of the largest
// score not above s. A score of 1 or more gets the code of 1.0. A score below
// 2⁻³¹ (zero, negative or NaN included) has no code: it rounds to zero, and
// its entry is not stored.
func scoreCode(s float64) (uint16, bool) {
	switch {
	case !(s >= minStored):
		return 0, false
	case s >= 1:
		return maxScoreCode, true
	}
	return uint16((math.Float64bits(s) - codeBias) >> codeShift), true
}

// codeScore is the score of code c, exactly: one shift and one add.
func codeScore(c uint16) float64 { return math.Float64frombits(uint64(c)<<codeShift + codeBias) }

// StoredScore is the score an encoded entry holds for s: s with its mantissa
// cut to 11 bits, rounded toward zero, so it loses less than 2⁻¹¹ of itself;
// 1 for a score of 1 or more, and 0, which means the entry is not stored, for
// a score below 2⁻³¹. The stored score is never above s, so a fold of stored
// records stays a pointwise lower bound of the exact PPV and the Theorem 2
// bound 1 - sum(estimate) stays sound; re-encoding a stored score gives it
// back bit for bit.
func StoredScore(s float64) float64 {
	c, ok := scoreCode(s)
	if !ok {
		return 0
	}
	return codeScore(c)
}

// gapBytes is the size of gap as a uvarint.
func gapBytes(gap uint32) int { return (bits.Len32(gap|1) + 6) / 7 }

// AppendEncoded appends the record encoding of entries to dst: the one
// encoder of hub-record payloads. Entries must be in strictly ascending node
// order with non-negative ids, as the prime push emits them; an entry whose
// score rounds to zero (StoredScore) is left out. It grows dst to the exact
// size once.
func AppendEncoded(dst []byte, entries []Entry) []byte {
	size, next := 0, uint32(0)
	for _, e := range entries {
		if _, ok := scoreCode(e.Score); ok {
			size += gapBytes(uint32(e.Node)-next) + scoreBytes
			next = uint32(e.Node) + 1
		}
	}
	dst, next = slices.Grow(dst, size), 0
	for _, e := range entries {
		c, ok := scoreCode(e.Score)
		if !ok {
			continue
		}
		// Out of order ids wrap the gap past 2³¹, which no reader accepts.
		dst = binary.AppendUvarint(dst, uint64(uint32(e.Node)-next))
		dst = binary.LittleEndian.AppendUint16(dst, c)
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

// Next returns the next entry and its score. ok is false at the end of the
// payload and at the first malformed entry. A score code above maxScoreCode
// decodes to a score above 1; the gate of records read from a file
// (ppvindex's checkPayload) refuses it.
func (r *EncodedReader) Next() (id graph.NodeID, score float64, ok bool) {
	// A one- or two-byte gap, all but the rarest, inline.
	if b := r.data; len(b) >= minEntryBytes {
		gap, n := uint64(b[0]), 1
		if gap >= 0x80 {
			if len(b) < minEntryBytes+1 || b[1] == 0 || b[1] >= 0x80 {
				return r.nextSlow()
			}
			gap, n = gap&0x7f|uint64(b[1])<<7, 2
		}
		if id := r.next + gap; id <= math.MaxInt32 {
			r.next, r.data = id+1, b[n+scoreBytes:]
			return graph.NodeID(id), codeScore(binary.LittleEndian.Uint16(b[n:])), true
		}
	}
	return r.nextSlow()
}

// nextSlow is Next for a gap of more than two bytes, a malformed entry or the
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
	case len(b)-n < scoreBytes:
		return r.fail(errScoreCut)
	}
	id := r.next + gap
	r.next, r.data = id+1, b[n+scoreBytes:]
	return graph.NodeID(id), codeScore(binary.LittleEndian.Uint16(b[n:])), true
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
