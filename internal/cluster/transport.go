// transport.go is the router's shard transport: how one partial sub-request
// physically reaches a shard. There is one wire format — a persistent binary
// stream per shard (HTTP/1.1 upgrade on GET /v1/stream, then
// api.ReadFrame/WriteFrame both ways), request-id multiplexed so every
// in-flight sub-request of every concurrent query shares one connection.
//
// A request whose stream breaks under it drops the connection, re-dials once
// immediately and is re-sent. A request that times out is not re-sent — the
// shard had its whole RequestTimeout — but its stream is dropped too, in case
// it is wedged.
//
// The transport also holds the shard's one liveness rule, its backoff window.
// Every shard fault of a leg opens it: 100ms after a success, then twice the
// last window up to 5s. Inside it the shard is down for the whole router: no
// leg is sent, its frontier mass folds into the still-exact bound, and Stats
// counts it unhealthy. After it the next leg is the probe, and a leg the shard
// answers closes it. Nothing runs in the background. Which errors are faults
// is shardFault's call; retries on CodeRetry and epoch bookkeeping stay in
// Router.partial.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/api"
)

// TransportBinary is the only value RouterConfig.Transport accepts besides
// "". Both are one-value vestiges kept for the frozen benchmark harness
// (bench/workload.go), which names them.
const TransportBinary = "binary"

// TransportStats is the wire-level view of one shard's stream.
type TransportStats struct {
	// StreamConnected reports a currently established stream.
	StreamConnected bool `json:"stream_connected,omitempty"`
	// Reconnects counts re-established streams after a break.
	Reconnects int64 `json:"reconnects,omitempty"`
	// FramesSent/FramesReceived and BytesSent/BytesReceived count traffic on
	// the wire.
	FramesSent     int64 `json:"frames_sent"`
	FramesReceived int64 `json:"frames_received"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesReceived  int64 `json:"bytes_received"`
	// DroppedReplies counts stream replies that arrived after their request
	// had timed out.
	DroppedReplies int64 `json:"dropped_replies,omitempty"`
}

// streamBackoff bounds the backoff window: the first after a success lasts
// min, each further one twice the last, up to max.
const (
	streamBackoffMin = 100 * time.Millisecond
	streamBackoffMax = 5 * time.Second
)

var errTransportClosed = errors.New("cluster: transport closed")

// errRequestTimeout is wrapped by the error of a request that got no reply
// within the transport's timeout.
var errRequestTimeout = errors.New("cluster: stream request timed out")

// streamTransport multiplexes one shard's partial sub-requests over one
// persistent binary stream. It is safe for concurrent use.
type streamTransport struct {
	target  string
	shard   int
	timeout time.Duration
	logger  *slog.Logger

	// until is the end of the shard's backoff window on the monotonic clock,
	// 0 while the window is closed, so a healthy shard costs one atomic load.
	until atomic.Int64

	// dialMu admits one dial at a time: concurrent requests that find no
	// stream wait for the dial in flight and share its outcome instead of each
	// dialing.
	dialMu sync.Mutex

	mu          sync.Mutex
	conn        *streamConn
	failedDials int   // dials that failed so far
	dialErr     error // what the last failed dial returned
	everOpened  bool
	closed      bool
	// backoff is the length of the next window; opened is when the current
	// one opened. Both change only under mu.
	backoff time.Duration
	opened  time.Time

	reconnects atomic.Int64
	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	dropped    atomic.Int64
}

func newStreamTransport(target string, shard int, timeout time.Duration, logger *slog.Logger) *streamTransport {
	return &streamTransport{
		target:  target,
		shard:   shard,
		timeout: timeout,
		logger:  logger,
		backoff: streamBackoffMin,
	}
}

// Partial sends one sub-request and waits for its reply. An error frame from
// the shard comes back as *api.Error; anything else is a transport failure.
func (t *streamTransport) Partial(preq *api.PartialRequest, traceID string) (*api.PartialResponse, error) {
	for redialed := false; ; redialed = true {
		c, err := t.acquireConn()
		if err != nil {
			return nil, err
		}
		resp, err := c.roundTrip(t, preq, traceID)
		if err == nil {
			return resp, nil
		}
		var aerr *api.Error
		if errors.As(err, &aerr) {
			// The shard answered with an error frame; the stream is fine.
			return nil, err
		}
		if errors.Is(err, errRequestTimeout) {
			// A re-send would make this leg wait twice RequestTimeout. The
			// stream's other requests see it dropped and are re-sent.
			t.dropConn(c, fmt.Errorf("cluster: stream to %s dropped after a request timed out", t.target))
			return nil, err
		}
		// The stream broke under this request. Drop it; the first time, dial a
		// fresh one and re-send — if only the stream broke that succeeds, if
		// the shard died the dial fails fast.
		t.dropConn(c, err)
		if redialed {
			return nil, err
		}
	}
}

// acquireConn returns the established stream, dialing one when there is none.
func (t *streamTransport) acquireConn() (*streamConn, error) {
	t.mu.Lock()
	c, failed := t.conn, t.failedDials
	t.mu.Unlock()
	if c != nil {
		return c, nil
	}
	t.dialMu.Lock()
	defer t.dialMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.closed:
		return nil, errTransportClosed
	case t.conn != nil:
		return t.conn, nil
	case t.failedDials != failed:
		// The dial this request waited for failed; its outcome is this
		// request's too.
		return nil, t.dialErr
	}
	t.mu.Unlock()
	c, err := dialStream(t.target, t.timeout)
	t.mu.Lock()
	if err != nil {
		t.failedDials++
		t.dialErr = fmt.Errorf("cluster: dialing stream to shard %d: %w", t.shard, err)
		t.logger.Debug("stream dial failed", "shard", t.shard, "target", t.target, "error", err)
		return nil, t.dialErr
	}
	if t.closed {
		c.fail(errTransportClosed)
		return nil, errTransportClosed
	}
	if t.everOpened {
		t.reconnects.Add(1)
	}
	t.everOpened = true
	t.conn = c
	go c.readLoop(t)
	t.logger.Info("shard stream established", "shard", t.shard, "target", t.target)
	return c, nil
}

// monotonic is the clock of the backoff windows: nanoseconds since
// clockStart, which unlike the wall clock never jump.
func monotonic() int64 { return int64(time.Since(clockStart)) }

var clockStart = time.Now()

// down reports whether the shard is inside its backoff window.
func (t *streamTransport) down() bool {
	end := t.until.Load()
	return end != 0 && monotonic() < end
}

// admit reports whether a leg may be sent to the shard now: always while the
// window is closed, never inside it. Once the window has elapsed the first leg
// to ask is the probe. It pushes the window out by one request timeout, so the
// legs that ask while it is in flight stay out, and its outcome closes the
// window or opens the next one.
func (t *streamTransport) admit() bool {
	end := t.until.Load()
	if end == 0 {
		return true
	}
	now := monotonic()
	return now >= end && t.until.CompareAndSwap(end, now+int64(t.timeout))
}

// settle moves the backoff window on the outcome of a leg sent at sent: a
// shard fault opens it, anything else closes it. The outcome of a leg sent
// before the window last opened belongs to the outage that opened it and
// moves nothing, so concurrent legs failing together open one window.
func (t *streamTransport) settle(sent time.Time, err error) {
	fault := err != nil && shardFault(err)
	if !fault && t.until.Load() == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sent.Before(t.opened) {
		return
	}
	if !fault {
		t.until.Store(0)
		t.backoff = streamBackoffMin
		t.logger.Info("shard back up", "shard", t.shard, "target", t.target)
		return
	}
	t.opened = time.Now()
	t.until.Store(monotonic() + int64(t.backoff))
	t.logger.Info("shard down", "shard", t.shard, "target", t.target, "window", t.backoff, "error", err)
	t.backoff = min(2*t.backoff, streamBackoffMax)
}

// dropConn tears down a broken stream, failing its in-flight requests. The
// next request dials a fresh one.
func (t *streamTransport) dropConn(c *streamConn, cause error) {
	c.fail(cause)
	t.mu.Lock()
	if t.conn == c {
		t.conn = nil
	}
	t.mu.Unlock()
}

func (t *streamTransport) Stats() TransportStats {
	t.mu.Lock()
	connected := t.conn != nil
	t.mu.Unlock()
	return TransportStats{
		StreamConnected: connected,
		Reconnects:      t.reconnects.Load(),
		FramesSent:      t.framesSent.Load(),
		FramesReceived:  t.framesRecv.Load(),
		BytesSent:       t.bytesSent.Load(),
		BytesReceived:   t.bytesRecv.Load(),
		DroppedReplies:  t.dropped.Load(),
	}
}

func (t *streamTransport) Close() {
	t.mu.Lock()
	t.closed = true
	c := t.conn
	t.conn = nil
	t.mu.Unlock()
	if c != nil {
		c.fail(errTransportClosed)
	}
}

// dialStream opens a TCP connection to the shard and upgrades it to the
// binary frame protocol. Any answer but 101 is a failed dial.
func dialStream(target string, timeout time.Duration) (*streamConn, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad stream target %q: %w", target, err)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	conn.SetDeadline(deadline)
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		api.StreamPath, u.Host, api.StreamProtocol); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: reading upgrade response: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		io.CopyN(io.Discard, resp.Body, 4096)
		resp.Body.Close()
		conn.Close()
		return nil, fmt.Errorf("cluster: stream upgrade rejected with status %d", resp.StatusCode)
	}
	if !strings.EqualFold(resp.Header.Get("Upgrade"), api.StreamProtocol) {
		conn.Close()
		return nil, fmt.Errorf("cluster: upgrade answered with protocol %q, want %q",
			resp.Header.Get("Upgrade"), api.StreamProtocol)
	}
	conn.SetDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	return &streamConn{
		conn:    conn,
		br:      br,
		pending: make(map[uint64]chan streamReply),
		done:    make(chan struct{}),
	}, nil
}

// streamReply is one multiplexed answer: a response or a decoded error frame.
type streamReply struct {
	resp *api.PartialResponse
	err  error
}

// streamConn is one established stream. Writers serialize on wmu; the single
// readLoop goroutine routes reply frames to pending channels by request id.
type streamConn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan streamReply
	nextID  uint64
	err     error

	done     chan struct{}
	failOnce sync.Once
}

// fail breaks the connection: all in-flight and future requests on it error
// out immediately.
func (c *streamConn) fail(cause error) {
	c.failOnce.Do(func() {
		c.mu.Lock()
		c.err = cause
		c.mu.Unlock()
		close(c.done)
		c.conn.Close()
	})
}

// brokenErr returns the error the connection failed with.
func (c *streamConn) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		return errors.New("cluster: stream closed")
	}
	return c.err
}

// writeFrame sends one frame under the write lock with a bounded deadline,
// counting it into the transport's wire stats.
func (c *streamConn) writeFrame(t *streamTransport, ftype byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(t.timeout))
	n, err := api.WriteFrame(c.conn, ftype, payload)
	if err != nil {
		return err
	}
	t.framesSent.Add(1)
	t.bytesSent.Add(int64(n))
	return nil
}

// roundTrip sends one partial request and waits for its multiplexed reply.
func (c *streamConn) roundTrip(t *streamTransport, preq *api.PartialRequest, traceID string) (*api.PartialResponse, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan streamReply, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	payload, err := api.EncodePartialRequest(id, traceID, preq)
	if err != nil {
		c.unregister(id)
		return nil, err
	}
	if err := c.writeFrame(t, api.FramePartialRequest, payload); err != nil {
		c.unregister(id)
		c.fail(err)
		return nil, err
	}
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	select {
	case rep := <-ch:
		return rep.resp, rep.err
	case <-timer.C:
		c.unregister(id)
		return nil, fmt.Errorf("%w: no reply from %s after %v", errRequestTimeout, t.target, t.timeout)
	case <-c.done:
		c.unregister(id)
		return nil, c.brokenErr()
	}
}

// unregister removes a pending request; a reply that arrives for it later is
// dropped.
func (c *streamConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// deliver routes one reply to its waiter; replies for timed-out requests are
// counted and dropped.
func (c *streamConn) deliver(t *streamTransport, id uint64, rep streamReply) {
	c.mu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ch == nil {
		t.dropped.Add(1)
		return
	}
	ch <- rep
}

// readLoop is the connection's only reader: it decodes frames and routes them
// until the stream breaks. A framing or payload decode error is a broken
// stream (the protocol has no resync point), never a panic.
func (c *streamConn) readLoop(t *streamTransport) {
	for {
		ftype, payload, n, err := api.ReadFrame(c.br)
		if err != nil {
			t.dropConn(c, fmt.Errorf("cluster: stream from %s broke: %w", t.target, err))
			// Fail the stragglers (roundTrip also listens on done; this keeps
			// the map from pinning channels).
			c.mu.Lock()
			//lint:ordered teardown error broadcast; every pending channel gets the same error and delivery order is unobservable
			for id, ch := range c.pending {
				delete(c.pending, id)
				select {
				case ch <- streamReply{err: c.err}:
				default:
				}
			}
			c.mu.Unlock()
			return
		}
		t.framesRecv.Add(1)
		t.bytesRecv.Add(int64(n))
		switch ftype {
		case api.FramePartialResponse:
			id, presp, derr := api.DecodePartialResponse(payload)
			if derr != nil {
				c.fail(derr)
				continue
			}
			c.deliver(t, id, streamReply{resp: presp})
		case api.FrameError:
			id, aerr, derr := api.DecodeError(payload)
			if derr != nil {
				c.fail(derr)
				continue
			}
			c.deliver(t, id, streamReply{err: aerr})
		default:
			// Unknown frame type: tolerated for forward compatibility.
		}
	}
}
