package api

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"fastppv/internal/graph"
)

func randVector(rng *rand.Rand, n int) Vector {
	seen := map[graph.NodeID]bool{}
	v := Vector{}
	for len(v.Nodes) < n {
		id := graph.NodeID(rng.Intn(1 << 20))
		if seen[id] {
			continue
		}
		seen[id] = true
		v.Nodes = append(v.Nodes, id)
	}
	// Encoder requires ascending ids, like EncodeVector produces.
	for i := 1; i < len(v.Nodes); i++ {
		for j := i; j > 0 && v.Nodes[j] < v.Nodes[j-1]; j-- {
			v.Nodes[j], v.Nodes[j-1] = v.Nodes[j-1], v.Nodes[j]
		}
	}
	for range v.Nodes {
		v.Scores = append(v.Scores, rng.Float64()*math.Pow(10, float64(rng.Intn(30)-15)))
	}
	return v
}

func TestBinaryPartialRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := graph.NodeID(12345)
	root := &PartialRequest{Query: &q}
	fr := randVector(rng, 257)
	exp := &PartialRequest{Frontier: &fr, Iteration: 7}
	for _, tc := range []struct {
		name  string
		id    uint64
		trace string
		preq  *PartialRequest
	}{
		{"root", 1, "trace-abc", root},
		{"expand", 1 << 40, "", exp},
	} {
		payload, err := EncodePartialRequest(tc.id, tc.trace, tc.preq)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		id, trace, got, err := DecodePartialRequest(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if id != tc.id || trace != tc.trace {
			t.Fatalf("%s: id/trace = %d/%q, want %d/%q", tc.name, id, trace, tc.id, tc.trace)
		}
		if tc.preq.Query != nil {
			if got.Query == nil || *got.Query != *tc.preq.Query {
				t.Fatalf("%s: query mismatch", tc.name)
			}
		} else {
			if got.Frontier == nil || got.Query != nil || got.Iteration != tc.preq.Iteration {
				t.Fatalf("%s: metadata mismatch: %+v", tc.name, got)
			}
			assertVectorExact(t, *got.Frontier, *tc.preq.Frontier)
		}
	}
}

func assertVectorExact(t *testing.T, got, want Vector) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("vector length %d, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("node[%d] = %d, want %d", i, got.Nodes[i], want.Nodes[i])
		}
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("score[%d] bits differ: %x vs %x", i,
				math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
		}
	}
}

func TestBinaryPartialResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	presp := &PartialResponse{
		Shard: 1, Shards: 2, Epoch: 99,
		Increment:    randVector(rng, 513),
		Frontier:     randVector(rng, 31),
		HubsExpanded: 12, HubsSkipped: 3,
		Unowned:   []graph.NodeID{4, 7, 1000000},
		FromIndex: true,
		ComputeMS: 1.25e-3,
		Delta:     0.005,
	}
	payload, err := EncodePartialResponse(42, presp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	id, got, err := DecodePartialResponse(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if id != 42 {
		t.Fatalf("id = %d, want 42", id)
	}
	if got.Shard != 1 || got.Shards != 2 || got.Epoch != 99 ||
		got.HubsExpanded != 12 || got.HubsSkipped != 3 || !got.FromIndex ||
		got.ComputeMS != presp.ComputeMS || got.Delta != presp.Delta {
		t.Fatalf("scalar mismatch: %+v", got)
	}
	assertVectorExact(t, got.Increment, presp.Increment)
	assertVectorExact(t, got.Frontier, presp.Frontier)
	if len(got.Unowned) != 3 || got.Unowned[2] != 1000000 {
		t.Fatalf("unowned mismatch: %v", got.Unowned)
	}
}

func TestBinaryErrorAndCancelRoundTrip(t *testing.T) {
	payload := EncodeError(9, &Error{Code: CodeRetry, Message: "index closed"})
	id, e, err := DecodeError(payload)
	if err != nil || id != 9 || e.Code != CodeRetry || e.Message != "index closed" {
		t.Fatalf("error round trip: id=%d e=%+v err=%v", id, e, err)
	}
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payload := EncodeError(1, &Error{Code: CodeInternal, Message: "x"})
	var buf bytes.Buffer
	wrote, err := WriteFrame(&buf, FrameError, payload)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	if wrote != len(raw) {
		t.Fatalf("wrote %d bytes, frame is %d", wrote, len(raw))
	}

	ftype, got, n, err := ReadFrame(bytes.NewReader(raw))
	if err != nil || ftype != FrameError || n != len(raw) || !bytes.Equal(got, payload) {
		t.Fatalf("read: type=%d n=%d err=%v", ftype, n, err)
	}

	// Clean EOF at a frame boundary is io.EOF, not a framing error.
	if _, _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err=%v, want io.EOF", err)
	}

	// Every kind of damage must surface as ErrBadFrame — never a panic, and
	// never silently decoded.
	for name, corrupt := range map[string][]byte{
		"flipped payload bit": flipBit(raw, 12),
		"flipped crc bit":     flipBit(raw, len(raw)-1),
		"bad magic":           flipBit(raw, 0),
		"truncated mid-frame": raw[:len(raw)-3],
		"header only":         raw[:6],
	} {
		_, _, _, err := ReadFrame(bytes.NewReader(corrupt))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err=%v, want ErrBadFrame", name, err)
		}
	}

	// A declared payload length beyond the limit is rejected before allocation.
	huge := append([]byte(nil), raw...)
	huge[5], huge[6], huge[7], huge[8] = 0xff, 0xff, 0xff, 0x7f
	if _, _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: err=%v, want ErrBadFrame", err)
	}
}

func flipBit(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

func TestBinaryDecodeTruncatedPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fr := randVector(rng, 64)
	reqPayload, err := EncodePartialRequest(3, "t", &PartialRequest{Frontier: &fr, Iteration: 2})
	if err != nil {
		t.Fatal(err)
	}
	respPayload, err := EncodePartialResponse(4, &PartialResponse{
		Increment: fr, Frontier: randVector(rng, 8), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func([]byte) error{
		"request": func(p []byte) error {
			_, _, _, err := DecodePartialRequest(p)
			return err
		},
		"response": func(p []byte) error {
			_, _, err := DecodePartialResponse(p)
			return err
		},
	} {
		payload := reqPayload
		if name == "response" {
			payload = respPayload
		}
		// Every strict prefix must fail cleanly, not panic or mis-decode.
		for cut := 0; cut < len(payload); cut++ {
			if err := decode(payload[:cut]); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s truncated at %d: err=%v, want ErrBadFrame", name, cut, err)
			}
		}
		if err := decode(payload); err != nil {
			t.Fatalf("%s full payload: %v", name, err)
		}
	}
}
