package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"fastppv/internal/api"
	"fastppv/internal/core"
	"fastppv/internal/graph"
)

// dialStreamRaw performs the client half of the stream upgrade by hand, so
// tests can speak raw frames to a production shard.
func dialStreamRaw(t *testing.T, tsURL string) (net.Conn, *bufio.Reader) {
	t.Helper()
	u, err := url.Parse(tsURL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", u.Host, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		api.StreamPath, u.Host, api.StreamProtocol)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		t.Fatalf("upgrade = %d, want 101", resp.StatusCode)
	}
	return conn, br
}

// streamPartial sends one partial request frame under id and reads the one
// reply frame: the response, or the structured error the shard answered with.
func streamPartial(t *testing.T, conn net.Conn, br *bufio.Reader, id uint64, traceID string, preq *api.PartialRequest) (*api.PartialResponse, *api.Error) {
	t.Helper()
	payload, err := api.EncodePartialRequest(id, traceID, preq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.WriteFrame(conn, api.FramePartialRequest, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ftype, body, _, err := api.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	var (
		gotID uint64
		presp *api.PartialResponse
		aerr  *api.Error
	)
	switch ftype {
	case api.FramePartialResponse:
		gotID, presp, err = api.DecodePartialResponse(body)
	case api.FrameError:
		gotID, aerr, err = api.DecodeError(body)
	default:
		t.Fatalf("reply frame type = %#x, want a partial response or an error", ftype)
	}
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("reply id = %d, want %d", gotID, id)
	}
	return presp, aerr
}

func TestHeaderContainsToken(t *testing.T) {
	const token = api.StreamProtocol
	for _, tc := range []struct {
		name   string
		values []string
		want   bool
	}{
		{"single token", []string{token}, true},
		{"one of several", []string{"a, " + token}, true},
		{"second header line", []string{"websocket", token}, true},
		{"mixed case", []string{strings.ToUpper(token)}, true},
		{"tab and space padding", []string{"h2c,\t " + token + " \t"}, true},
		{"absent", []string{"websocket, h2c"}, false},
		{"prefix only", []string{token + "x"}, false},
		{"no header", nil, false},
	} {
		h := http.Header{}
		for _, v := range tc.values {
			h.Add("Upgrade", v)
		}
		if got := headerContainsToken(h, "Upgrade", token); got != tc.want {
			t.Errorf("%s: headerContainsToken(%q) = %v, want %v", tc.name, tc.values, got, tc.want)
		}
	}
}

// TestStreamRawProtocol drives a production shard over raw frames: replies
// carry their request's id, stray cancels and unknown frame types are
// tolerated, and the stream's traffic shows up in the stats.
func TestStreamRawProtocol(t *testing.T) {
	g := socialGraph(t, 300)
	srv, err := New(testEngine(t, g, 40), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.CloseStreams()

	conn, br := dialStreamRaw(t, ts.URL)
	defer conn.Close()

	node := graph.NodeID(3)
	root, aerr := streamPartial(t, conn, br, 7, "raw-trace", &api.PartialRequest{Query: &node})
	if aerr != nil {
		t.Fatalf("root request answered %v", aerr)
	}

	// Unknown frame types are tolerated for forward compatibility; the stream
	// keeps serving.
	for _, ftype := range []byte{0x04, 0x7f} {
		if _, err := api.WriteFrame(conn, ftype, []byte("future")); err != nil {
			t.Fatal(err)
		}
	}
	if _, aerr := streamPartial(t, conn, br, 8, "", &api.PartialRequest{Iteration: 1, Frontier: &root.Frontier}); aerr != nil {
		t.Fatalf("expansion answered %v", aerr)
	}

	// Stats report the stream and its traffic. The shard counts a partial
	// after writing its reply, so the second one may land a moment after the
	// reply was read here.
	st := shardStatsOf(t, ts)
	for deadline := time.Now().Add(2 * time.Second); st.Streams != nil && st.Streams.Partials < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st = shardStatsOf(t, ts)
	}
	if st.Streams == nil || st.Streams.Open != 1 || st.Streams.Partials < 2 {
		t.Fatalf("stream stats = %+v, want 1 open with >=2 partials", st.Streams)
	}
	if st.Streams.BytesIn == 0 || st.Streams.BytesOut == 0 {
		t.Fatalf("stream stats count no bytes: %+v", st.Streams)
	}
}

// TestStreamRejectsNonFiniteFrontier: a frontier weight that is NaN, +Inf or
// negative would pass the kernel's delta prune and come back as a non-finite
// or negative increment in the router's estimate and bound. The shard answers
// each with a bad_request error frame, and the stream keeps serving.
func TestStreamRejectsNonFiniteFrontier(t *testing.T) {
	g := socialGraph(t, 300)
	srv, err := New(testEngine(t, g, 40), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.CloseStreams()
	conn, br := dialStreamRaw(t, ts.URL)
	defer conn.Close()

	node := graph.NodeID(3)
	root, aerr := streamPartial(t, conn, br, 1, "", &api.PartialRequest{Query: &node})
	if aerr != nil {
		t.Fatalf("root request answered %v", aerr)
	}
	if len(root.Frontier.Nodes) == 0 {
		t.Fatal("root frontier is empty; nothing to poison")
	}
	id := uint64(2)
	for _, bad := range []float64{math.NaN(), math.Inf(1), -0.25} {
		poisoned := api.Vector{Nodes: root.Frontier.Nodes, Scores: slices.Clone(root.Frontier.Scores)}
		poisoned.Scores[len(poisoned.Scores)/2] = bad
		presp, aerr := streamPartial(t, conn, br, id, "", &api.PartialRequest{Iteration: 1, Frontier: &poisoned})
		if presp != nil || aerr == nil || aerr.Code != api.CodeBadRequest {
			t.Errorf("frontier weight %v: answered a response (%v) and error %v, want only code %q", bad, presp != nil, aerr, api.CodeBadRequest)
		}
		id++
		if _, aerr := streamPartial(t, conn, br, id, "", &api.PartialRequest{Iteration: 1, Frontier: &root.Frontier}); aerr != nil {
			t.Errorf("valid expansion after the weight-%v error frame answered %v", bad, aerr)
		}
		id++
	}
}

// TestStreamServerTornFrame sends garbage after the upgrade and checks the
// shard tears the stream down with a counted decode error — no panic, no
// hang, and the server keeps serving.
func TestStreamServerTornFrame(t *testing.T) {
	g := socialGraph(t, 200)
	srv, err := New(testEngine(t, g, 30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.CloseStreams()

	conn, br := dialStreamRaw(t, ts.URL)
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not a frame, not even close")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("server kept the stream open after a torn frame")
	}
	st := shardStatsOf(t, ts)
	if st.Streams == nil || st.Streams.DecodeErrors == 0 {
		t.Fatalf("decode error not counted: %+v", st.Streams)
	}
	if st.Streams.Open != 0 {
		t.Fatalf("torn stream still counted open: %+v", st.Streams)
	}

	// A well-framed request whose frontier payload is cut short is the same
	// event: the protocol has no resync point, so the stream goes.
	conn2, br2 := dialStreamRaw(t, ts.URL)
	defer conn2.Close()
	frontier := api.Vector{Nodes: []graph.NodeID{1, 2}, Scores: []float64{0.1, 0.2}}
	payload, err := api.EncodePartialRequest(1, "", &api.PartialRequest{Iteration: 1, Frontier: &frontier})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.WriteFrame(conn2, api.FramePartialRequest, payload[:len(payload)-8]); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br2.ReadByte(); err == nil {
		t.Fatal("server answered a request with a malformed frontier")
	}
	if after := shardStatsOf(t, ts); after.Streams.DecodeErrors <= st.Streams.DecodeErrors {
		t.Fatalf("malformed frontier not counted as a decode error: %+v", after.Streams)
	}
	// The HTTP surface is unaffected.
	if status, _, _ := get(t, ts, "/v1/ppv?node=1&eta=1"); status != http.StatusOK {
		t.Fatalf("query after torn stream = %d", status)
	}
}

// TestStreamTransportAgainstServer runs the binary transport end to end:
// router -> persistent stream -> shard, asserting the stream is actually
// used, the shards answer exactly one request frame per leg the router's
// traces record, and the trace ID travels inside the request frames to the
// shard's structured logs.
func TestStreamTransportAgainstServer(t *testing.T) {
	g := socialGraph(t, 400)
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(lockedWriter{mu: &logMu, w: &logBuf},
		&slog.HandlerOptions{Level: slog.LevelDebug}))

	shardURLs := make([]string, 2)
	shardTS := make([]*httptest.Server, 2)
	for i := 0; i < 2; i++ {
		e, err := core.NewEngine(g, nil, core.Options{NumHubs: 60, Partition: core.Partition{Shard: i, Shards: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		srv, err := New(e, Config{Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { srv.CloseStreams(); ts.Close() })
		shardURLs[i], shardTS[i] = ts.URL, ts
	}
	routerTS, rt := routerServer(t, shardURLs)

	const clientID = "stream-trace-7"
	req, err := http.NewRequest(http.MethodGet, routerTS.URL+"/v1/ppv?node=5&eta=3&trace=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TraceHeader, clientID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced routed query = %d", resp.StatusCode)
	}
	if qr.Trace == nil || qr.Trace.TraceID != clientID {
		t.Fatalf("trace block = %+v, want client ID %q", qr.Trace, clientID)
	}
	traces := []*RetainedTrace{qr.Trace}
	// More multi-iteration queries to exercise both shards, two of them
	// stopping on a target error with hubs still on the frontier.
	for _, path := range []string{
		"/v1/ppv?node=12&eta=3&trace=1",
		"/v1/ppv?node=77&eta=3&trace=1",
		"/v1/ppv?node=203&eta=8&target-error=0.6&trace=1",
		"/v1/ppv?node=91&eta=8&target-error=0.6&trace=1",
	} {
		st, _, body := get(t, routerTS, path)
		var qr QueryResponse
		if st != http.StatusOK || json.Unmarshal(body, &qr) != nil || qr.Trace == nil {
			t.Fatalf("routed query %s = %d: %s", path, st, body)
		}
		traces = append(traces, qr.Trace)
	}
	legs := int64(0)
	for _, tr := range traces {
		for _, it := range tr.Iterations {
			for _, leg := range it.Legs {
				if !leg.Skipped {
					legs++
				}
			}
		}
	}
	// Every frame a shard reads must be one of those legs, and every leg
	// answered. A shard counts a partial after writing its reply, so the last
	// one may land a moment after the router read it; a frame sent ahead of
	// the schedule could reach its shard after the answer.
	shardStreams := func() (framesIn, partials int64) {
		for _, ts := range shardTS {
			ss := shardStatsOf(t, ts).Streams
			framesIn, partials = framesIn+ss.FramesIn, partials+ss.Partials
		}
		return framesIn, partials
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, partials := shardStreams(); partials >= legs {
			break
		}
	}
	time.Sleep(50 * time.Millisecond)
	if framesIn, partials := shardStreams(); framesIn != legs || partials != legs {
		t.Errorf("shards read %d frames and answered %d partials for %d legs in the router's traces", framesIn, partials, legs)
	}

	st := rt.Stats()
	for _, ss := range st.Shards {
		tr := ss.Transport
		if !tr.StreamConnected || tr.Reconnects != 0 {
			t.Errorf("shard %d transport %+v, want one connected stream, never re-dialled", ss.Shard, tr)
		}
		if tr.FramesSent == 0 || tr.FramesReceived == 0 {
			t.Errorf("shard %d exchanged no frames: %+v", ss.Shard, tr)
		}
	}
	if st.WireBytesSent == 0 || st.WireBytesReceived == 0 {
		t.Errorf("router counted no wire bytes: sent=%d received=%d", st.WireBytesSent, st.WireBytesReceived)
	}

	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "trace_id="+clientID) {
		t.Error("client trace ID never reached a shard over the binary stream")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestStreamBreakRecovers breaks only the streams (the shard process stays
// up) and checks the router transparently recovers: the very next query
// re-dials and answers non-degraded.
func TestStreamBreakRecovers(t *testing.T) {
	g := socialGraph(t, 400)
	shards := shardedServers(t, g, 60, 2)
	routerTS, rt := routerServer(t, []string{shards[0].URL, shards[1].URL})

	if st, _, body := get(t, routerTS, "/v1/ppv?node=5&eta=3"); st != http.StatusOK {
		t.Fatalf("warm query = %d: %s", st, body)
	}
	connectedShards := func() int {
		n := 0
		for _, ss := range rt.Stats().Shards {
			if ss.Transport.StreamConnected {
				n++
			}
		}
		return n
	}
	if connectedShards() == 0 {
		t.Fatal("no streams established by the warm query")
	}

	// Sever every stream mid-run; the shards keep serving HTTP.
	for _, sh := range shards {
		sh.srv.CloseStreams()
	}

	// The very next query must answer correctly over re-dialled streams, never
	// hang, and not report shards down.
	st, _, body := get(t, routerTS, "/v1/ppv?node=17&eta=3")
	if st != http.StatusOK {
		t.Fatalf("query after stream break = %d: %s", st, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Degraded || qr.ShardsDown != 0 {
		t.Fatalf("stream break degraded the answer: %s", body)
	}

	if connectedShards() == 0 {
		t.Fatal("no stream re-established by the query after the break")
	}
	var reconnects int64
	for _, ss := range rt.Stats().Shards {
		reconnects += ss.Transport.Reconnects
	}
	if reconnects == 0 {
		t.Error("reconnect counter did not move")
	}
}
