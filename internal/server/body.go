// body.go writes response bodies. Query and batch bodies — the bodies of the
// hot path — are appended by hand, with no reflection: appendQueryResponse
// writes exactly the bytes encoding/json writes for a QueryResponse with HTML
// escaping off (FuzzQueryResponseJSON holds the two equal). Every other body,
// and the trace inside a ?trace=1 answer, goes through encoding/json.
package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// bodyPool recycles response buffers: encoding into a pooled buffer first
// (instead of straight into the ResponseWriter) gives every body an exact
// Content-Length, avoids chunked framing, and keeps the encoder's scratch out
// of the per-request allocation bill. Buffers that ballooned on a huge top-k
// response are dropped instead of pinned in the pool.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// contentTypeJSON is every body's Content-Type value, assigned into the header
// map as is: Header().Set would allocate a fresh value slice per response.
var contentTypeJSON = []string{"application/json"}

// netHTTPBuffer is the size of net/http's per-response buffer
// (bufferBeforeChunkingSize). A body written in one Write that fits it is still
// buffered when the handler returns, and net/http then sets its exact
// Content-Length itself; a larger body needs the header from writeBody, or it
// goes out chunked.
const netHTTPBuffer = 2048

// writeBody writes the body encode appends to an empty pooled buffer. If
// encode fails (a non-finite float), the status goes out with an empty body.
func writeBody(w http.ResponseWriter, status int, encode func(b []byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	b, err := encode((*bp)[:0])
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	if err == nil && len(b) > netHTTPBuffer {
		h.Set("Content-Length", strconv.Itoa(len(b)))
	}
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// writeJSON writes v as encoding/json encodes it with HTML escaping off.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, func(b []byte) ([]byte, error) { return appendJSON(b, v) })
}

// appendJSON appends v as encoding/json encodes it with HTML escaping off.
func appendJSON(b []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return b, err
	}
	// Encode terminates the value with a newline for stream framing; with an
	// exact Content-Length it is dead weight on every response.
	out := buf.Bytes()
	return out[:len(out)-1], nil
}

// appendBatchResponse appends the body of a batch answer.
func appendBatchResponse(b []byte, r *BatchResponse) ([]byte, error) {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendQueryResponse(b, &r.Results[i]); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

// appendQueryResponse appends the body of a query answer: the fields in
// declaration order, omitempty ones only when non-zero, and the trace of a
// ?trace=1 answer spliced in as encoding/json encodes it.
func appendQueryResponse(b []byte, r *QueryResponse) ([]byte, error) {
	var ok bool
	b = append(b, `{"node":`...)
	b = strconv.AppendInt(b, int64(r.Node), 10)
	b = append(b, `,"requested_eta":`...)
	b = strconv.AppendInt(b, int64(r.RequestedEta), 10)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(r.Iterations), 10)
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.ShardsDown != 0 {
		b = append(b, `,"shards_down":`...)
		b = strconv.AppendInt(b, int64(r.ShardsDown), 10)
	}
	if r.ShardsBehind != 0 {
		b = append(b, `,"shards_behind":`...)
		b = strconv.AppendInt(b, int64(r.ShardsBehind), 10)
	}
	if r.LostErrorMass != 0 {
		b = append(b, `,"lost_error_mass":`...)
		if b, ok = appendFloat(b, r.LostErrorMass); !ok {
			return b, errNonFinite
		}
	}
	b = append(b, `,"l1_error_bound":`...)
	if b, ok = appendFloat(b, r.L1ErrorBound); !ok {
		return b, errNonFinite
	}
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"node":`...)
			b = strconv.AppendInt(b, int64(e.Node), 10)
			if e.Label != "" {
				b = append(b, `,"label":`...)
				b = appendString(b, e.Label)
			}
			b = append(b, `,"score":`...)
			if b, ok = appendFloat(b, e.Score); !ok {
				return b, errNonFinite
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Trace != nil {
		b = append(b, `,"trace":`...)
		var err error
		if b, err = appendJSON(b, r.Trace); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// errNonFinite fails a body holding a NaN or an infinity, which JSON cannot
// represent (encoding/json fails such a value too).
var errNonFinite = &json.UnsupportedValueError{Str: "non-finite float"}

// appendFloat appends f as encoding/json writes a float64 — the shortest
// representation, in exponent form below 1e-6 or from 1e21 on with the
// exponent unpadded — and reports false for NaN and the infinities.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64), true
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	// e-07 → e-7
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendString appends s as a JSON string the way encoding/json does with HTML
// escaping off: quote, backslash and control bytes escaped (\b \f \n \r \t by
// name, the rest as \u00XX), each byte of invalid UTF-8 as \ufffd, and U+2028
// and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
