// Package frame is a framesafe fixture for the framed-log substrate's scope:
// its import path ends in internal/frame, so the replay loop under an
// exported Open*/Scan* entry is held to the same contract as the codecs.
package frame

import (
	"encoding/binary"
	"errors"
	"io"
)

var errShort = errors.New("short header")

// Scan is the substrate's shape: the frame header is a fixed-size array and
// the payload is made to the length just read, so neither read needs a
// separate check: clean.
func Scan(r io.Reader) (uint32, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(head[0:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(head[4:]), nil
}

// OpenUnchecked trusts a header slice it was handed: flagged, through the
// helper, because Open* is an entry point.
func OpenUnchecked(hdr []byte) uint32 {
	return magic(hdr)
}

func magic(hdr []byte) uint32 {
	return binary.LittleEndian.Uint32(hdr) // want "without a preceding length check"
}

// OpenChecked rejects a short header first: clean.
func OpenChecked(hdr []byte) (uint32, error) {
	if len(hdr) < 8 {
		return 0, errShort
	}
	return binary.LittleEndian.Uint32(hdr[4:]), nil
}
