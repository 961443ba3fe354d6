// Binary framing for the shard transport: the compact encoding of the
// partial-query types in api.go that the router and shards speak over a
// persistent stream. Every message is one frame:
//
//	magic "FPS1" (4) | type (1) | payload length uint32 LE (4) | payload | CRC-32 (4)
//
// The trailing checksum is CRC-32 (IEEE) over type + length + payload, so a
// torn or corrupted frame is detected before any payload field is trusted.
// Payloads use uvarints for counts and ids, delta-encoded ascending node ids
// for vectors, and math.Float64bits (little-endian) for scores — float64
// values round-trip bit-exactly, which is what keeps a routed answer within
// 1e-12 of the single-node one. Every payload starts with a uvarint request
// id so many in-flight sub-queries can multiplex one stream per shard.
package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"fastppv/internal/graph"
)

// StreamPath is the endpoint a client upgrades to open a binary partial-query
// stream: GET /v1/stream with "Upgrade: fastppv-stream/2" answers 101
// Switching Protocols and hands the raw connection to the frame protocol.
const StreamPath = "/v1/stream"

// StreamProtocol is the value of the Upgrade header both sides must present.
// Its version names the payload layouts: a peer speaking another version is
// refused at upgrade rather than misreading frames.
const StreamProtocol = "fastppv-stream/2"

// Frame types. Requests travel router->shard; responses and errors travel
// shard->router.
const (
	// FramePartialRequest carries one PartialRequest (root or expansion).
	FramePartialRequest byte = 0x01
	// FramePartialResponse carries the PartialResponse answering a request id.
	FramePartialResponse byte = 0x02
	// FrameError carries a structured Error answering a request id.
	FrameError byte = 0x03
)

// frameMagic opens every frame; a stream that yields anything else is
// corrupt or not speaking the protocol.
var frameMagic = [4]byte{'F', 'P', 'S', '1'}

// MaxFramePayload bounds a single frame. Partial responses scale with graph
// size; 64 MiB is far above any realistic increment while still rejecting a
// nonsense length from a corrupt header before allocation.
const MaxFramePayload = 64 << 20

// frameOverhead is the fixed byte cost around a payload: magic + type +
// length + CRC.
const frameOverhead = 4 + 1 + 4 + 4

// ErrBadFrame wraps every framing-level decode failure (bad magic, oversized
// length, checksum mismatch, truncation mid-frame) so transports can
// distinguish a corrupt stream from a clean EOF.
var ErrBadFrame = errors.New("api: bad stream frame")

// WriteFrame writes one frame and returns the total bytes written.
func WriteFrame(w io.Writer, ftype byte, payload []byte) (int, error) {
	if len(payload) > MaxFramePayload {
		return 0, fmt.Errorf("api: frame payload %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	buf := make([]byte, 0, frameOverhead+len(payload))
	buf = append(buf, frameMagic[:]...)
	buf = append(buf, ftype)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[4 : 9+len(payload)])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	n, err := w.Write(buf)
	return n, err
}

// ReadFrame reads one frame. A clean EOF at a frame boundary returns io.EOF;
// any torn, truncated or corrupt frame returns an error wrapping ErrBadFrame.
// The second return is the payload; the last is the total bytes consumed.
func ReadFrame(r io.Reader) (byte, []byte, int, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, nil, 0, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[:4])
	}
	ftype := hdr[4]
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if n > MaxFramePayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrBadFrame, n, MaxFramePayload)
	}
	body := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	payload := body[:n]
	want := binary.LittleEndian.Uint32(body[n:])
	crc := crc32.ChecksumIEEE(hdr[4:9])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != want {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrBadFrame, crc, want)
	}
	return ftype, payload, frameOverhead + int(n), nil
}

// appendVector encodes a wire vector: count, first node id absolute then
// ascending deltas (all uvarint), then count*8 bytes of little-endian
// Float64bits.
func appendVector(buf []byte, v Vector) ([]byte, error) {
	if len(v.Nodes) != len(v.Scores) {
		return nil, fmt.Errorf("api: vector has %d nodes but %d scores", len(v.Nodes), len(v.Scores))
	}
	buf = binary.AppendUvarint(buf, uint64(len(v.Nodes)))
	prev := int64(-1)
	for _, id := range v.Nodes {
		if int64(id) <= prev {
			return nil, fmt.Errorf("api: vector nodes not strictly ascending at %d", id)
		}
		buf = binary.AppendUvarint(buf, uint64(int64(id)-prev))
		prev = int64(id)
	}
	for _, s := range v.Scores {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	return buf, nil
}

// payloadReader walks a frame payload with sticky error handling; decode
// helpers can be chained and the first failure checked once at the end.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated u64 at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *payloadReader) str(limit int) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(limit) || r.off+int(n) > len(r.b) {
		r.fail("string length %d out of range at offset %d", n, r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *payloadReader) nodes() []graph.NodeID {
	count := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Each delta costs at least one byte, so a count beyond the remaining
	// payload is corrupt — reject it before allocating.
	if count > uint64(len(r.b)-r.off) {
		r.fail("node count %d exceeds remaining payload", count)
		return nil
	}
	ids := make([]graph.NodeID, count)
	prev := int64(-1)
	for i := range ids {
		d := r.uvarint()
		if r.err != nil {
			return nil
		}
		id := prev + int64(d)
		if d == 0 || id > math.MaxInt32 {
			r.fail("node id out of range at entry %d", i)
			return nil
		}
		ids[i] = graph.NodeID(id)
		prev = id
	}
	return ids
}

func (r *payloadReader) vector() Vector {
	ids := r.nodes()
	if r.err != nil {
		return Vector{}
	}
	scores := make([]float64, len(ids))
	for i := range scores {
		scores[i] = math.Float64frombits(r.u64())
	}
	if r.err != nil {
		return Vector{}
	}
	return Vector{Nodes: ids, Scores: scores}
}

// Request payload flag bits.
const reqFlagRoot = 1 << 0

// Response payload flag bits.
const respFlagFromIndex = 1 << 0

// maxTraceLen bounds the trace id carried per request frame.
const maxTraceLen = 256

// EncodePartialRequest encodes a request frame payload:
//
//	id | flags | trace | root? query-node : (iteration | frontier)
func EncodePartialRequest(id uint64, traceID string, preq *PartialRequest) ([]byte, error) {
	if (preq.Query == nil) == (preq.Frontier == nil) {
		return nil, fmt.Errorf("api: partial request needs exactly one of query and frontier")
	}
	if len(traceID) > maxTraceLen {
		traceID = traceID[:maxTraceLen]
	}
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, id)
	var flags byte
	if preq.Query != nil {
		flags |= reqFlagRoot
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(traceID)))
	buf = append(buf, traceID...)
	if preq.Query != nil {
		buf = binary.AppendUvarint(buf, uint64(uint32(*preq.Query)))
		return buf, nil
	}
	buf = binary.AppendUvarint(buf, uint64(preq.Iteration))
	return appendVector(buf, *preq.Frontier)
}

// DecodePartialRequest decodes a request frame payload.
func DecodePartialRequest(payload []byte) (id uint64, traceID string, preq *PartialRequest, err error) {
	r := &payloadReader{b: payload}
	id = r.uvarint()
	var flags byte
	if r.err == nil {
		if r.off >= len(r.b) {
			r.fail("truncated flags")
		} else {
			flags = r.b[r.off]
			r.off++
		}
	}
	traceID = r.str(maxTraceLen)
	preq = &PartialRequest{}
	if flags&reqFlagRoot != 0 {
		q := graph.NodeID(int32(uint32(r.uvarint())))
		preq.Query = &q
	} else {
		preq.Iteration = int(r.uvarint())
		v := r.vector()
		preq.Frontier = &v
	}
	if r.err != nil {
		return 0, "", nil, r.err
	}
	return id, traceID, preq, nil
}

// EncodePartialResponse encodes a response frame payload:
//
//	id | flags | shard | shards | epoch | expanded | skipped | compute-ms |
//	increment | frontier | unowned
func EncodePartialResponse(id uint64, presp *PartialResponse) ([]byte, error) {
	buf := make([]byte, 0, 64+9*(len(presp.Increment.Nodes)+len(presp.Frontier.Nodes)))
	buf = binary.AppendUvarint(buf, id)
	var flags byte
	if presp.FromIndex {
		flags |= respFlagFromIndex
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(presp.Shard))
	buf = binary.AppendUvarint(buf, uint64(presp.Shards))
	buf = binary.AppendUvarint(buf, presp.Epoch)
	buf = binary.AppendUvarint(buf, uint64(presp.HubsExpanded))
	buf = binary.AppendUvarint(buf, uint64(presp.HubsSkipped))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(presp.ComputeMS))
	var err error
	if buf, err = appendVector(buf, presp.Increment); err != nil {
		return nil, err
	}
	if buf, err = appendVector(buf, presp.Frontier); err != nil {
		return nil, err
	}
	return appendVector(buf, Vector{Nodes: presp.Unowned, Scores: make([]float64, len(presp.Unowned))})
}

// DecodePartialResponse decodes a response frame payload.
func DecodePartialResponse(payload []byte) (id uint64, presp *PartialResponse, err error) {
	r := &payloadReader{b: payload}
	id = r.uvarint()
	var flags byte
	if r.err == nil {
		if r.off >= len(r.b) {
			r.fail("truncated flags")
		} else {
			flags = r.b[r.off]
			r.off++
		}
	}
	presp = &PartialResponse{
		FromIndex:    flags&respFlagFromIndex != 0,
		Shard:        int(r.uvarint()),
		Shards:       int(r.uvarint()),
		Epoch:        r.uvarint(),
		HubsExpanded: int(r.uvarint()),
		HubsSkipped:  int(r.uvarint()),
		ComputeMS:    math.Float64frombits(r.u64()),
	}
	presp.Increment = r.vector()
	presp.Frontier = r.vector()
	unowned := r.vector()
	if r.err != nil {
		return 0, nil, r.err
	}
	if len(unowned.Nodes) > 0 {
		presp.Unowned = unowned.Nodes
	}
	return id, presp, nil
}

// EncodeError encodes an error frame payload: id | code | message.
func EncodeError(id uint64, e *Error) []byte {
	buf := make([]byte, 0, 16+len(e.Code)+len(e.Message))
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(e.Code)))
	buf = append(buf, e.Code...)
	msg := e.Message
	if len(msg) > 4096 {
		msg = msg[:4096]
	}
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	buf = append(buf, msg...)
	return buf
}

// DecodeError decodes an error frame payload.
func DecodeError(payload []byte) (id uint64, e *Error, err error) {
	r := &payloadReader{b: payload}
	id = r.uvarint()
	e = &Error{Code: r.str(256), Message: r.str(4096)}
	if r.err != nil {
		return 0, nil, r.err
	}
	return id, e, nil
}
