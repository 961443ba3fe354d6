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
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
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

// TestStreamRawProtocol drives a production shard over raw frames and checks
// the binary answers are bit-identical to the JSON /v1/partial surface.
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

	// Root request over the stream.
	node := graph.NodeID(3)
	preq := &api.PartialRequest{Query: &node}
	payload, err := api.EncodePartialRequest(7, "raw-trace", preq)
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
	if ftype != api.FramePartialResponse {
		t.Fatalf("frame type = %#x, want partial response", ftype)
	}
	id, streamResp, err := api.DecodePartialResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Fatalf("response id = %d, want 7", id)
	}

	// The same request over JSON must produce bit-identical vectors.
	status, jsonBody := post(t, ts, "/v1/partial", `{"query":3}`)
	if status != http.StatusOK {
		t.Fatalf("JSON partial = %d: %s", status, jsonBody)
	}
	var jsonResp api.PartialResponse
	if err := json.Unmarshal(jsonBody, &jsonResp); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]api.Vector{
		"increment": {streamResp.Increment, jsonResp.Increment},
		"frontier":  {streamResp.Frontier, jsonResp.Frontier},
	} {
		a, b := pair[0], pair[1]
		if len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("%s: %d nodes via stream, %d via JSON", name, len(a.Nodes), len(b.Nodes))
		}
		for i := range a.Nodes {
			if a.Nodes[i] != b.Nodes[i] || a.Scores[i] != b.Scores[i] {
				t.Fatalf("%s[%d]: stream (%d,%v) != JSON (%d,%v)",
					name, i, a.Nodes[i], a.Scores[i], b.Nodes[i], b.Scores[i])
			}
		}
	}

	// A cancel for an unknown id is a no-op; the stream keeps serving.
	if _, err := api.WriteFrame(conn, api.FrameCancel, api.EncodeCancel(999, 123)); err != nil {
		t.Fatal(err)
	}
	// An unknown frame type is tolerated for forward compatibility.
	if _, err := api.WriteFrame(conn, 0x7f, []byte("future")); err != nil {
		t.Fatal(err)
	}
	payload, err = api.EncodePartialRequest(8, "", &api.PartialRequest{
		Iteration: 1, Frontier: &streamResp.Frontier,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.WriteFrame(conn, api.FramePartialRequest, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ftype, body, _, err = api.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if ftype != api.FramePartialResponse {
		t.Fatalf("expansion frame type = %#x", ftype)
	}
	if id, _, err = api.DecodePartialResponse(body); err != nil || id != 8 {
		t.Fatalf("expansion reply id=%d err=%v", id, err)
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
	// The HTTP surface is unaffected.
	if status, _, _ := get(t, ts, "/v1/ppv?node=1&eta=1"); status != http.StatusOK {
		t.Fatalf("query after torn stream = %d", status)
	}
}

// TestStreamTransportAgainstServer runs the binary transport end to end:
// router -> persistent stream -> shard, asserting the stream is actually
// used (no JSON fallback), speculation fires and hits, and the trace ID
// travels inside the request frames to the shard's structured logs.
func TestStreamTransportAgainstServer(t *testing.T) {
	g := socialGraph(t, 400)
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(lockedWriter{mu: &logMu, w: &logBuf},
		&slog.HandlerOptions{Level: slog.LevelDebug}))

	shardURLs := make([]string, 2)
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
		shardURLs[i] = ts.URL
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
	// A couple more multi-iteration queries to exercise both shards.
	for _, node := range []int{12, 77, 203} {
		if st, _, body := get(t, routerTS, fmt.Sprintf("/v1/ppv?node=%d&eta=3", node)); st != http.StatusOK {
			t.Fatalf("routed query for %d = %d: %s", node, st, body)
		}
	}

	st := rt.Stats()
	if st.Transport != cluster.TransportBinary {
		t.Fatalf("router transport = %q, want binary", st.Transport)
	}
	for _, ss := range st.Shards {
		tr := ss.Transport
		if tr.Kind != cluster.TransportBinary || !tr.StreamConnected {
			t.Errorf("shard %d transport %+v, want a connected binary stream", ss.Shard, tr)
		}
		if tr.FramesSent == 0 || tr.FramesReceived == 0 {
			t.Errorf("shard %d exchanged no frames: %+v", ss.Shard, tr)
		}
		if tr.FallbackRequests != 0 {
			t.Errorf("shard %d used %d JSON fallbacks with a healthy stream", ss.Shard, tr.FallbackRequests)
		}
	}
	if st.WireBytesSent == 0 || st.WireBytesReceived == 0 {
		t.Errorf("router counted no wire bytes: sent=%d received=%d", st.WireBytesSent, st.WireBytesReceived)
	}
	if st.SpeculationsSent == 0 || st.SpeculationHits == 0 {
		t.Errorf("speculation never fired: sent=%d hits=%d", st.SpeculationsSent, st.SpeculationHits)
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

// TestClusterBinaryMatchesJSONTransport answers the same queries through a
// binary-transport router and a forced-JSON router and requires byte-identical
// bodies, both within 1e-12 of the single-node server.
func TestClusterBinaryMatchesJSONTransport(t *testing.T) {
	g := socialGraph(t, 500)
	single, err := New(testEngine(t, g, 70), Config{})
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	shards := shardedServers(t, g, 70, 2)
	urls := []string{shards[0].URL, shards[1].URL}
	fronts := map[string]*httptest.Server{}
	routers := map[string]*cluster.Router{}
	for _, transport := range []string{cluster.TransportBinary, cluster.TransportJSON} {
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Targets: urls, HealthInterval: -1, Transport: transport,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		srv, err := NewRouter(rt, Config{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		fronts[transport] = ts
		routers[transport] = rt
	}

	for _, node := range []int{2, 58, 301, 499} {
		path := fmt.Sprintf("/v1/ppv?node=%d&eta=3&top=10", node)
		stB, _, bodyB := get(t, fronts[cluster.TransportBinary], path)
		stJ, _, bodyJ := get(t, fronts[cluster.TransportJSON], path)
		stS, _, bodyS := get(t, singleTS, path)
		if stB != http.StatusOK || stJ != http.StatusOK || stS != http.StatusOK {
			t.Fatalf("node %d: binary=%d json=%d single=%d", node, stB, stJ, stS)
		}
		if string(bodyB) != string(bodyJ) {
			t.Errorf("node %d: binary and JSON transports disagree:\n%s\n%s", node, bodyB, bodyJ)
		}
		var rb, rs QueryResponse
		if err := json.Unmarshal(bodyB, &rb); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyS, &rs); err != nil {
			t.Fatal(err)
		}
		if math.Abs(rb.L1ErrorBound-rs.L1ErrorBound) > 1e-12 {
			t.Errorf("node %d: cluster bound %.15f, single %.15f", node, rb.L1ErrorBound, rs.L1ErrorBound)
		}
		if len(rb.Results) != len(rs.Results) {
			t.Fatalf("node %d: %d results via cluster, %d single", node, len(rb.Results), len(rs.Results))
		}
		for i := range rb.Results {
			if rb.Results[i].Node != rs.Results[i].Node || math.Abs(rb.Results[i].Score-rs.Results[i].Score) > 1e-12 {
				t.Errorf("node %d rank %d: cluster (%d,%v), single (%d,%v)", node, i,
					rb.Results[i].Node, rb.Results[i].Score, rs.Results[i].Node, rs.Results[i].Score)
			}
		}
	}
	// The binary router really streamed; the JSON router really did not.
	if bst := routers[cluster.TransportBinary].Stats(); bst.WireBytesSent == 0 {
		t.Error("binary router sent no stream bytes")
	}
	for _, ss := range routers[cluster.TransportJSON].Stats().Shards {
		if ss.Transport.Kind != cluster.TransportJSON {
			t.Errorf("forced-JSON router shard %d reports transport %q", ss.Shard, ss.Transport.Kind)
		}
	}
}

// TestClusterMixedTransportFallback runs a cluster where one shard does not
// speak the stream protocol: the router must hold a binary stream to one and
// fall back to JSON for the other, with answers still matching the single
// node to 1e-12.
func TestClusterMixedTransportFallback(t *testing.T) {
	g := socialGraph(t, 400)
	single, err := New(testEngine(t, g, 60), Config{})
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	shards := shardedServers(t, g, 60, 2)
	// Shard 1 pretends to be an older build: /v1/stream does not exist.
	noStream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.StreamPath {
			http.NotFound(w, r)
			return
		}
		shards[1].srv.Handler().ServeHTTP(w, r)
	}))
	defer noStream.Close()

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Targets: []string{shards[0].URL, noStream.URL}, HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := NewRouter(rt, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(srv.Handler())
	defer routerTS.Close()

	for _, node := range []int{4, 111, 342} {
		path := fmt.Sprintf("/v1/ppv?node=%d&eta=3&top=10", node)
		stC, _, bodyC := get(t, routerTS, path)
		stS, _, bodyS := get(t, singleTS, path)
		if stC != http.StatusOK || stS != http.StatusOK {
			t.Fatalf("node %d: cluster=%d single=%d", node, stC, stS)
		}
		var rc, rs QueryResponse
		if err := json.Unmarshal(bodyC, &rc); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyS, &rs); err != nil {
			t.Fatal(err)
		}
		if rc.Degraded || rc.ShardsDown != 0 {
			t.Fatalf("node %d: mixed cluster answered degraded: %s", node, bodyC)
		}
		if math.Abs(rc.L1ErrorBound-rs.L1ErrorBound) > 1e-12 {
			t.Errorf("node %d: mixed bound %.15f, single %.15f", node, rc.L1ErrorBound, rs.L1ErrorBound)
		}
		for i := range rs.Results {
			if rc.Results[i].Node != rs.Results[i].Node || math.Abs(rc.Results[i].Score-rs.Results[i].Score) > 1e-12 {
				t.Errorf("node %d rank %d: mixed (%d,%v), single (%d,%v)", node, i,
					rc.Results[i].Node, rc.Results[i].Score, rs.Results[i].Node, rs.Results[i].Score)
			}
		}
	}

	st := rt.Stats()
	if tr := st.Shards[0].Transport; !tr.StreamConnected || tr.FramesSent == 0 {
		t.Errorf("shard 0 should stream: %+v", tr)
	}
	if tr := st.Shards[1].Transport; tr.StreamConnected || tr.FallbackRequests == 0 {
		t.Errorf("shard 1 should be on permanent JSON fallback: %+v", tr)
	}
}

// TestStreamBreakRecovers breaks only the streams (the shard process stays
// up) and checks the router transparently recovers: the next query still
// answers non-degraded, and the stream is re-established after backoff.
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

	// The very next query must answer correctly (reconnect or JSON retry),
	// never hang, and not report shards down.
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

	// Streams come back after the reconnect backoff.
	deadline := time.Now().Add(5 * time.Second)
	for connectedShards() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("streams never re-established after break")
		}
		time.Sleep(50 * time.Millisecond)
		get(t, routerTS, fmt.Sprintf("/v1/ppv?node=%d&eta=2", 20+int(time.Now().UnixNano()%100)))
	}
	var reconnects int64
	for _, ss := range rt.Stats().Shards {
		reconnects += ss.Transport.Reconnects
	}
	if reconnects == 0 {
		t.Error("reconnect counter did not move")
	}
}
