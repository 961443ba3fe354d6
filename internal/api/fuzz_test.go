package api

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// FuzzBinaryFrame feeds arbitrary bytes to the FPS1 frame reader. The framing
// contract: a clean EOF at a frame boundary is io.EOF, everything else that
// fails wraps ErrBadFrame, and a frame that decodes re-encodes to the exact
// consumed bytes. Payloads of known frame types additionally go through their
// message decoders, which must return structured errors (never panic) and
// reach a canonical encode/decode fixed point when they accept the payload.
func FuzzBinaryFrame(f *testing.F) {
	var valid bytes.Buffer
	if _, err := WriteFrame(&valid, FrameError, EncodeError(7, &Error{Code: CodeRetry, Message: "index closed"})); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("FPS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ftype, payload, n, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ReadFrame returned unstructured error %v", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("ReadFrame consumed %d of %d bytes", n, len(data))
		}
		var re bytes.Buffer
		if _, werr := WriteFrame(&re, ftype, payload); werr != nil {
			t.Fatalf("re-encoding a decoded frame failed: %v", werr)
		}
		if !bytes.Equal(re.Bytes(), data[:n]) {
			t.Fatalf("frame round trip mismatch: got %x want %x", re.Bytes(), data[:n])
		}
		checkPayloadFixedPoint(t, ftype, payload)
	})
}

// checkPayloadFixedPoint runs the typed message decoder over an accepted
// frame payload. A rejected payload is fine; an accepted one must reach a
// canonical fixed point: encode(decode(p)) re-decodes and re-encodes to
// byte-identical output.
func checkPayloadFixedPoint(t *testing.T, ftype byte, payload []byte) {
	t.Helper()
	switch ftype {
	case FramePartialRequest:
		id, traceID, preq, err := DecodePartialRequest(payload)
		if err != nil {
			return
		}
		p2, err := EncodePartialRequest(id, traceID, preq)
		if err != nil {
			t.Fatalf("re-encoding a decoded partial request failed: %v", err)
		}
		id3, trace3, preq3, err := DecodePartialRequest(p2)
		if err != nil {
			t.Fatalf("decoding a re-encoded partial request failed: %v", err)
		}
		p3, err := EncodePartialRequest(id3, trace3, preq3)
		if err != nil || !bytes.Equal(p2, p3) {
			t.Fatalf("partial request did not reach an encode fixed point (err=%v)", err)
		}
	case FramePartialResponse:
		id, presp, err := DecodePartialResponse(payload)
		if err != nil {
			return
		}
		p2, err := EncodePartialResponse(id, presp)
		if err != nil {
			t.Fatalf("re-encoding a decoded partial response failed: %v", err)
		}
		id3, presp3, err := DecodePartialResponse(p2)
		if err != nil {
			t.Fatalf("decoding a re-encoded partial response failed: %v", err)
		}
		p3, err := EncodePartialResponse(id3, presp3)
		if err != nil || !bytes.Equal(p2, p3) {
			t.Fatalf("partial response did not reach an encode fixed point (err=%v)", err)
		}
	case FrameError:
		id, e, err := DecodeError(payload)
		if err != nil {
			return
		}
		p2 := EncodeError(id, e)
		id3, e3, err := DecodeError(p2)
		if err != nil {
			t.Fatalf("decoding a re-encoded error failed: %v", err)
		}
		if !bytes.Equal(p2, EncodeError(id3, e3)) {
			t.Fatal("error message did not reach an encode fixed point")
		}
	}
}

// wireEntrySize is the size of one fuzz-input entry of FuzzVectorRoundTrip:
// a uint32 node id and the float64 bits of its score, little-endian. The wire
// carries float64 scores, so the input does too; the hub-record encoding of
// package sparse keeps only an 11-bit mantissa of each and would never reach
// the bits below it.
const wireEntrySize = 12

// putWireEntry writes one fuzz-input entry at the start of b.
func putWireEntry(b []byte, id graph.NodeID, score float64) {
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint64(b[4:], math.Float64bits(score))
}

// wireEntryAt decodes the i-th fuzz-input entry of b.
func wireEntryAt(b []byte, i int) (graph.NodeID, float64) {
	b = b[i*wireEntrySize:]
	return graph.NodeID(binary.LittleEndian.Uint32(b)), math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
}

// FuzzVectorRoundTrip drives the wire-vector codec from raw bytes: the input
// is chopped into (node, score) entries, encoded to wire form, framed as a
// partial response's increment, decoded, and compared bit-for-bit. Encoding
// sorts by node id and a map collapses duplicate ids, so the invariant is that
// the decoded vector is the encoded one, strictly ascending, with every
// surviving node's score bits preserved.
func FuzzVectorRoundTrip(f *testing.F) {
	seed := make([]byte, 2*wireEntrySize)
	putWireEntry(seed, 3, 0.5)
	putWireEntry(seed[wireEntrySize:], 9, math.SmallestNonzeroFloat64)
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / wireEntrySize
		v := sparse.New(n)
		for i := 0; i < n; i++ {
			id, s := wireEntryAt(data, i)
			v[id] = s
		}
		w := EncodeVector(v)
		if len(w.Nodes) != len(v) || len(w.Scores) != len(v) {
			t.Fatalf("encoding changed entry count: %d nodes, %d scores, want %d", len(w.Nodes), len(w.Scores), len(v))
		}
		payload, err := EncodePartialResponse(1, &PartialResponse{Increment: w})
		if err != nil {
			t.Fatalf("framing an encoded vector failed: %v", err)
		}
		_, presp, err := DecodePartialResponse(payload)
		if err != nil {
			t.Fatalf("decoding a framed vector failed: %v", err)
		}
		back := presp.Increment
		if len(back.Nodes) != len(w.Nodes) || len(back.Scores) != len(w.Scores) {
			t.Fatalf("frame round trip changed entry count: %d != %d", len(back.Nodes), len(w.Nodes))
		}
		for i, id := range w.Nodes {
			if i > 0 && id <= w.Nodes[i-1] {
				t.Fatalf("wire nodes not strictly ascending at entry %d", i)
			}
			if back.Nodes[i] != id || math.Float64bits(back.Scores[i]) != math.Float64bits(v[id]) {
				t.Fatalf("node %d: score %x round-tripped to node %d score %x",
					id, math.Float64bits(v[id]), back.Nodes[i], math.Float64bits(back.Scores[i]))
			}
		}
		// The frame encoder must also reject mismatched parallel slices.
		if len(w.Nodes) > 0 {
			short := Vector{Nodes: w.Nodes, Scores: w.Scores[:len(w.Scores)-1]}
			if _, err := EncodePartialResponse(1, &PartialResponse{Increment: short}); err == nil {
				t.Fatal("EncodePartialResponse accepted mismatched node/score lengths")
			}
		}
	})
}
