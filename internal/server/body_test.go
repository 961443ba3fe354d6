package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"fastppv/internal/corpus"
)

// Flags of the first byte of a FuzzQueryResponseJSON input.
const (
	fuzzDegraded   = 1 << iota // Degraded
	fuzzTrace                  // attach a trace
	fuzzNilResults             // Results is nil, not empty
	fuzzBatch                  // also encode a batch holding the answer twice
	fuzzNilBatch               // also encode a batch with nil Results
)

// fuzzReader reads fixed-width fields off a fuzz input, zeros past its end.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) take(n int) []byte {
	out := make([]byte, n)
	m := copy(out, r.data)
	r.data = r.data[m:]
	return out
}

func (r *fuzzReader) u8() byte { return r.take(1)[0] }
func (r *fuzzReader) i16() int { return int(int16(binary.LittleEndian.Uint16(r.take(2)))) }
func (r *fuzzReader) i32() int { return int(int32(binary.LittleEndian.Uint32(r.take(4)))) }
func (r *fuzzReader) f64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.take(8)))
}
func (r *fuzzReader) label() string { return string(r.take(int(r.u8() % 32))) }

// decodeFuzzResponse builds a QueryResponse from a fuzz input: a flag byte,
// node (int32), requested eta, iterations, shards down and behind (int16
// each), the lost mass and the bound (float64 bits), a result count (mod 64)
// and per result a node (int32), a label (length byte mod 32, raw bytes) and a
// score (float64 bits). Floats take every bit pattern, labels every byte.
func decodeFuzzResponse(data []byte) (flags byte, resp QueryResponse) {
	r := &fuzzReader{data: data}
	flags = r.u8()
	resp = QueryResponse{
		Node:          r.i32(),
		RequestedEta:  r.i16(),
		Iterations:    r.i16(),
		Degraded:      flags&fuzzDegraded != 0,
		ShardsDown:    r.i16(),
		ShardsBehind:  r.i16(),
		LostErrorMass: r.f64(),
		L1ErrorBound:  r.f64(),
	}
	n := int(r.u8() % 64)
	if flags&fuzzNilResults == 0 {
		resp.Results = make([]ScoredNode, 0, n)
		for i := 0; i < n && len(r.data) > 0; i++ {
			resp.Results = append(resp.Results, ScoredNode{Node: r.i32(), Label: r.label(), Score: r.f64()})
		}
	}
	if flags&fuzzTrace != 0 {
		resp.Trace = &RetainedTrace{
			TraceID:      r.label(),
			Time:         time.Unix(1_700_000_000, 123456789).UTC(),
			Node:         resp.Node,
			Eta:          resp.RequestedEta,
			Mode:         "engine",
			DurationMS:   resp.LostErrorMass,
			Explicit:     true,
			L1ErrorBound: resp.L1ErrorBound,
			Iterations:   []TraceSpan{{Iteration: 0, FrontierSize: resp.ShardsDown, MassAdded: r.f64()}},
		}
	}
	return flags, resp
}

// encodeFuzzResponse is decodeFuzzResponse's inverse, for the seed corpus.
func encodeFuzzResponse(flags byte, resp QueryResponse, traceID string, traceMass float64) []byte {
	var b []byte
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(resp.Node)))
	for _, v := range []int{resp.RequestedEta, resp.Iterations, resp.ShardsDown, resp.ShardsBehind} {
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(v)))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(resp.LostErrorMass))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(resp.L1ErrorBound))
	b = append(b, byte(len(resp.Results)))
	for _, e := range resp.Results {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(e.Node)))
		b = append(b, byte(len(e.Label)))
		b = append(b, e.Label...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Score))
	}
	if flags&fuzzTrace != 0 {
		b = append(b, byte(len(traceID)))
		b = append(b, traceID...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(traceMass))
	}
	return b
}

// FuzzQueryResponseJSON is the differential test of the hand-written body
// encoder: for any answer — labels of any bytes (control bytes, invalid
// UTF-8, U+2028/2029, HTML characters), floats of any bit pattern
// (subnormals, -0, the exponent-form cutoffs, NaN and the infinities),
// every omitempty field set or unset, nil or empty results, an attached
// trace — and for a batch of answers, appendQueryResponse and
// appendBatchResponse write exactly the bytes encoding/json writes with HTML
// escaping off, or both fail.
func FuzzQueryResponseJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFuzzResponse(fuzzBatch, QueryResponse{Node: 7, RequestedEta: 2, Iterations: 2, L1ErrorBound: 0.5,
		Results: []ScoredNode{{Node: 7, Score: 0.25}, {Node: 3, Label: "a\u2028b", Score: 1e-7}}}, "", 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		flags, resp := decodeFuzzResponse(data)
		same := func(what string, got []byte, gotErr error, v any) {
			want, wantErr := appendJSON(nil, v)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: hand-written encoder error %v, encoding/json error %v", what, gotErr, wantErr)
			}
			if wantErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: hand-written encoder wrote\n%s\nencoding/json wrote\n%s", what, got, want)
			}
		}
		// A non-empty prefix checks that the encoder appends.
		got, err := appendQueryResponse([]byte("x"), &resp)
		if err == nil {
			if got[0] != 'x' {
				t.Fatalf("the encoder overwrote the buffer's prefix: %q", got)
			}
			got = got[1:]
		}
		same("query body", got, err, &resp)
		if flags&fuzzBatch != 0 {
			batch := BatchResponse{Results: []QueryResponse{resp, {Node: 1, Results: []ScoredNode{}}, resp}}
			got, err := appendBatchResponse(nil, &batch)
			same("batch body", got, err, &batch)
		}
		if flags&fuzzNilBatch != 0 {
			got, err := appendBatchResponse(nil, &BatchResponse{})
			same("nil batch body", got, err, &BatchResponse{})
		}
	})
}

// TestRegenQueryResponseCorpus writes the committed seed corpus of
// FuzzQueryResponseJSON. Gated: it only runs with PPV_REGEN_CORPUS=1, after a
// change to the fuzz input layout.
func TestRegenQueryResponseCorpus(t *testing.T) {
	corpus.SkipUnlessRegen(t)
	top10 := make([]ScoredNode, 10)
	for i := range top10 {
		top10[i] = ScoredNode{Node: 1000 + 37*i, Score: 0.3 / float64(i+1)}
	}
	corpus.Write(t, "FuzzQueryResponseJSON",
		// A served ten-row body.
		encodeFuzzResponse(0, QueryResponse{Node: 4321, RequestedEta: 2, Iterations: 2, L1ErrorBound: 0.6012, Results: top10}, "", 0),
		// Labels: quotes, backslash, control bytes, DEL, HTML characters,
		// invalid UTF-8, U+2028 and U+2029, multi-byte runes.
		encodeFuzzResponse(0, QueryResponse{Node: 1, L1ErrorBound: 0.5, Results: []ScoredNode{
			{Node: 1, Label: "q\"b\\s/", Score: 0.5},
			{Node: 2, Label: "\x00\x01\b\f\n\r\t\x1f\x7f", Score: 0.25},
			{Node: 3, Label: "<a href='x'>&amp;</a>", Score: 0.125},
			{Node: 4, Label: "\xff\xfe\xc3(\xe2\x82", Score: 0.0625},
			{Node: 5, Label: "line\u2028para\u2029end", Score: 0.03125},
			{Node: 6, Label: "héllo, 世界 🙂", Score: 0.015625},
		}}, "", 0),
		// Floats at and around encoding/json's cutoffs.
		encodeFuzzResponse(0, QueryResponse{Node: 2, L1ErrorBound: 1e21, Results: []ScoredNode{
			{Node: 1, Score: 1e-7}, {Node: 2, Score: 1e-6}, {Node: 3, Score: 9.999999999999999e-7},
			{Node: 4, Score: 1e21}, {Node: 5, Score: 9.999999999999999e20}, {Node: 6, Score: 5e-324},
			{Node: 7, Score: 2.2250738585072014e-308}, {Node: 8, Score: math.Copysign(0, -1)},
			{Node: 9, Score: 0}, {Node: 10, Score: -1.5e-9}, {Node: 11, Score: math.MaxFloat64},
		}}, "", 0),
		// Every omitempty field set.
		encodeFuzzResponse(fuzzDegraded, QueryResponse{Node: 3, RequestedEta: 4, Iterations: 1, Degraded: true,
			ShardsDown: 1, ShardsBehind: 2, LostErrorMass: 0.125, L1ErrorBound: 0.75,
			Results: []ScoredNode{{Node: 3, Label: "n3", Score: 0.25}}}, "", 0),
		// A lost mass of -0 is omitted like 0.
		encodeFuzzResponse(0, QueryResponse{Node: 4, LostErrorMass: math.Copysign(0, -1), L1ErrorBound: 1, Results: []ScoredNode{}}, "", 0),
		// Non-finite floats: both encoders fail.
		encodeFuzzResponse(0, QueryResponse{Node: 5, L1ErrorBound: 0.5, Results: []ScoredNode{{Node: 1, Score: math.NaN()}}}, "", 0),
		encodeFuzzResponse(0, QueryResponse{Node: 5, L1ErrorBound: math.Inf(1), Results: []ScoredNode{}}, "", 0),
		encodeFuzzResponse(fuzzDegraded, QueryResponse{Node: 5, LostErrorMass: math.Inf(-1), L1ErrorBound: 0.5, Results: []ScoredNode{}}, "", 0),
		// An attached trace, and one holding a NaN.
		encodeFuzzResponse(fuzzTrace, QueryResponse{Node: 6, RequestedEta: 2, Iterations: 2, L1ErrorBound: 0.4,
			Results: []ScoredNode{{Node: 6, Score: 0.2}}}, "trace-<&>\u2028", 0.6),
		encodeFuzzResponse(fuzzTrace, QueryResponse{Node: 6, L1ErrorBound: 0.4, Results: []ScoredNode{}}, "t", math.NaN()),
		// Nil results, and batches.
		encodeFuzzResponse(fuzzNilResults|fuzzNilBatch, QueryResponse{Node: 7, L1ErrorBound: 0.5}, "", 0),
		encodeFuzzResponse(fuzzBatch, QueryResponse{Node: 8, RequestedEta: 1, Iterations: 1, L1ErrorBound: 0.5,
			Results: []ScoredNode{{Node: 8, Label: "x\ty", Score: 0.5}, {Node: -1, Score: 1e-300}}}, "", 0),
	)
}

// TestWriteBodyFraming: a body that fits net/http's response buffer and one
// that does not both go out with the JSON Content-Type and an exact
// Content-Length, never chunked: net/http sets the length of the first, and
// writeBody the length of the second.
func TestWriteBodyFraming(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) {
			return append(b, bytes.Repeat([]byte{'7'}, n)...), nil
		})
	}))
	defer srv.Close()
	for _, n := range []int{1, 300, netHTTPBuffer, netHTTPBuffer + 1, 5000} {
		resp, err := http.Get(srv.URL + "/?n=" + strconv.Itoa(n))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%d-byte body: Content-Type %q", n, ct)
		}
		if resp.ContentLength != int64(n) || len(resp.TransferEncoding) != 0 || len(body) != n {
			t.Errorf("%d-byte body: Content-Length %d, transfer encoding %v, %d bytes read",
				n, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
