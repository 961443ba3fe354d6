// stream.go is the shard side of the cluster's shard transport: GET
// /v1/stream upgrades the connection (101 + Hijack) and then speaks
// api.ReadFrame/WriteFrame both ways. Requests are multiplexed by id — each
// one is evaluated by evalPartial, under the same admission gate as full
// queries.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/api"
)

// streamWriteTimeout bounds one frame write so a wedged client cannot pin
// handler goroutines; a stream that cannot drain replies is torn down.
const streamWriteTimeout = 10 * time.Second

// streamSet tracks the server's open streams and their aggregate counters
// (counters survive the streams that produced them).
type streamSet struct {
	mu   sync.Mutex
	open map[*serverStream]struct{}

	accepted     atomic.Int64
	framesIn     atomic.Int64
	framesOut    atomic.Int64
	bytesIn      atomic.Int64
	bytesOut     atomic.Int64
	partials     atomic.Int64
	shed         atomic.Int64
	decodeErrors atomic.Int64
}

func newStreamSet() *streamSet {
	return &streamSet{open: map[*serverStream]struct{}{}}
}

func (set *streamSet) add(st *serverStream) {
	set.accepted.Add(1)
	set.mu.Lock()
	set.open[st] = struct{}{}
	set.mu.Unlock()
}

func (set *streamSet) remove(st *serverStream) {
	set.mu.Lock()
	delete(set.open, st)
	set.mu.Unlock()
}

// StreamConnStats is the per-connection slice of the stream stats: one open
// stream's admission accounting.
type StreamConnStats struct {
	Remote     string  `json:"remote"`
	AgeSeconds float64 `json:"age_seconds"`
	// Partials counts sub-requests this stream got answered; Shed the ones
	// its peer had rejected by the admission gate.
	Partials int64 `json:"partials"`
	Shed     int64 `json:"shed"`
}

// StreamStats reports the binary stream surface in GET /v1/stats.
type StreamStats struct {
	Open     int   `json:"open"`
	Accepted int64 `json:"accepted"`
	// FramesIn/Out and BytesIn/Out count wire traffic across all streams,
	// including closed ones.
	FramesIn  int64 `json:"frames_in"`
	FramesOut int64 `json:"frames_out"`
	BytesIn   int64 `json:"bytes_in"`
	BytesOut  int64 `json:"bytes_out"`
	// Partials counts stream sub-requests answered; Shed counts admission
	// rejections.
	Partials int64 `json:"partials"`
	Shed     int64 `json:"shed"`
	// DecodeErrors counts streams torn down on a corrupt or torn frame.
	DecodeErrors int64             `json:"decode_errors"`
	Conns        []StreamConnStats `json:"conns,omitempty"`
}

func (set *streamSet) stats() StreamStats {
	st := StreamStats{
		Accepted:     set.accepted.Load(),
		FramesIn:     set.framesIn.Load(),
		FramesOut:    set.framesOut.Load(),
		BytesIn:      set.bytesIn.Load(),
		BytesOut:     set.bytesOut.Load(),
		Partials:     set.partials.Load(),
		Shed:         set.shed.Load(),
		DecodeErrors: set.decodeErrors.Load(),
	}
	set.mu.Lock()
	st.Open = len(set.open)
	for s := range set.open {
		st.Conns = append(st.Conns, StreamConnStats{
			Remote:     s.remote,
			AgeSeconds: time.Since(s.opened).Seconds(),
			Partials:   s.partials.Load(),
			Shed:       s.shed.Load(),
		})
	}
	set.mu.Unlock()
	return st
}

// closeAll tears down every open stream (their serve loops exit on the read
// error) and returns how many were closed. Used by graceful shutdown:
// hijacked connections are invisible to http.Server.Shutdown.
func (set *streamSet) closeAll() int {
	set.mu.Lock()
	conns := make([]*serverStream, 0, len(set.open))
	for s := range set.open {
		conns = append(conns, s)
	}
	set.mu.Unlock()
	for _, s := range conns {
		s.conn.Close()
	}
	return len(conns)
}

// CloseStreams force-closes all open binary streams and returns how many
// there were. Call it during shutdown, before (or alongside)
// http.Server.Shutdown: hijacked stream connections are not tracked by the
// HTTP server, so nothing else closes them.
func (s *Server) CloseStreams() int {
	return s.streams.closeAll()
}

// serverStream is one upgraded connection.
type serverStream struct {
	s      *Server
	conn   net.Conn
	br     *bufio.Reader
	remote string
	opened time.Time

	wmu sync.Mutex

	partials atomic.Int64
	shed     atomic.Int64
}

// handleStream upgrades the connection and serves frames until it breaks. It
// is mounted outside instrument: a stream lives for hours and would only
// distort the request histograms.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeError(w, unsupported("/v1/stream is served by shards, not by the router"))
		return
	}
	if !headerContainsToken(r.Header, "Upgrade", api.StreamProtocol) {
		writeError(w, badRequest("upgrade to %q required", api.StreamProtocol))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, fmt.Errorf("stream: connection cannot be hijacked"))
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		writeError(w, fmt.Errorf("stream: hijack failed: %w", err))
		return
	}
	conn.SetDeadline(time.Now().Add(streamWriteTimeout))
	if _, err := fmt.Fprintf(conn, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n",
		api.StreamProtocol); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	st := &serverStream{
		s:      s,
		conn:   conn,
		br:     buf.Reader,
		remote: r.RemoteAddr,
		opened: time.Now(),
	}
	s.streams.add(st)
	s.logger.Info("stream opened", "remote", st.remote)
	st.serve()
	s.streams.remove(st)
	conn.Close()
	s.logger.Info("stream closed", "remote", st.remote,
		"partials", st.partials.Load(), "shed", st.shed.Load(),
		"age_seconds", time.Since(st.opened).Seconds())
}

// headerContainsToken reports whether any value of the header contains the
// token (comma-separated, case-insensitive) — the Upgrade header may list
// several protocols.
func headerContainsToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// serve is the stream's read loop: exactly one goroutine reads frames;
// requests are evaluated concurrently and answered through the write lock. A
// torn or corrupt frame tears the stream down (the protocol has no resync
// point) — a structured event, never a panic.
func (st *serverStream) serve() {
	set := st.s.streams
	for {
		ftype, payload, n, err := api.ReadFrame(st.br)
		if err != nil {
			if errors.Is(err, api.ErrBadFrame) {
				set.decodeErrors.Add(1)
				st.s.logger.Warn("stream torn down on bad frame", "remote", st.remote, "error", err)
			} else if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				st.s.logger.Debug("stream read failed", "remote", st.remote, "error", err)
			}
			return
		}
		set.framesIn.Add(1)
		set.bytesIn.Add(int64(n))
		switch ftype {
		case api.FramePartialRequest:
			id, traceID, preq, derr := api.DecodePartialRequest(payload)
			if derr != nil {
				set.decodeErrors.Add(1)
				st.s.logger.Warn("stream torn down on bad request payload", "remote", st.remote, "error", derr)
				return
			}
			go st.servePartial(id, traceID, preq)
		default:
			// Unknown frame type: tolerated for forward compatibility.
		}
	}
}

// servePartial answers one multiplexed request.
func (st *serverStream) servePartial(id uint64, traceID string, preq *api.PartialRequest) {
	set := st.s.streams
	presp, err := st.s.evalPartial(preq, traceID)
	if err != nil {
		ae := apiErrorOf(err)
		if ae.Code == api.CodeOverloaded {
			set.shed.Add(1)
			st.shed.Add(1)
		}
		st.writeErrorFrame(id, ae)
		return
	}
	payload, eerr := api.EncodePartialResponse(id, presp)
	if eerr != nil {
		st.writeErrorFrame(id, &api.Error{Code: api.CodeInternal, Message: eerr.Error()})
		return
	}
	if st.writeFrame(api.FramePartialResponse, payload) == nil {
		set.partials.Add(1)
		st.partials.Add(1)
	}
}

// writeFrame sends one frame under the write lock with a bounded deadline; a
// failed write closes the connection (the serve loop then exits on read).
func (st *serverStream) writeFrame(ftype byte, payload []byte) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	n, err := api.WriteFrame(st.conn, ftype, payload)
	if err != nil {
		st.conn.Close()
		return err
	}
	set := st.s.streams
	set.framesOut.Add(1)
	set.bytesOut.Add(int64(n))
	return nil
}

func (st *serverStream) writeErrorFrame(id uint64, e *api.Error) {
	st.writeFrame(api.FrameError, api.EncodeError(id, e))
}

// apiErrorOf converts an evalPartial error to the structured wire error,
// keeping its machine-readable code.
func apiErrorOf(err error) *api.Error {
	var he *httpError
	if errors.As(err, &he) {
		return &api.Error{Code: he.code, Message: he.msg}
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	return &api.Error{Code: api.CodeInternal, Message: err.Error()}
}
